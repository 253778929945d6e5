"""Property tests: the compact adjacency store replays dict-backed draws.

The store's whole contract is that swapping it in under ``Graph`` /
``OverlayGraph`` changes *nothing* observable: neighbor sequences keep
insertion order, seeded draws consume the same RNG stream and land on the
same nodes, and the batched ``row_mask`` agrees with the scalar
``has_row``.  Hypothesis
drives randomized mutation sequences against a plain dict-of-lists
reference model.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjacency import CompactAdjacency, NodeInterner

NODES = st.integers(min_value=0, max_value=24)
ALL_IDS = range(25)  # every id NODES can draw


def _ops():
    """A mutation program: (op, node, neighbor-or-row) tuples."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("append"), NODES, NODES),
            st.tuples(st.just("remove"), NODES, NODES),
            st.tuples(st.just("set_row"), NODES, st.lists(NODES, max_size=8)),
            st.tuples(st.just("drop"), NODES, st.just(None)),
        ),
        max_size=60,
    )


def _apply(ops):
    """Run one program against the store and the dict reference in lockstep."""
    compact = CompactAdjacency()
    model = {}
    for op, node, arg in ops:
        if op == "append":
            # Mirror Graph/Overlay usage: rows hold no duplicate neighbors.
            if arg not in model.setdefault(node, []):
                model[node].append(arg)
                compact.ensure_row(node)
                compact.append(node, arg)
            else:
                compact.ensure_row(node)
        elif op == "remove":
            if node in model and arg in model[node]:
                model[node].remove(arg)
                compact.remove(node, arg)
        elif op == "set_row":
            row = list(dict.fromkeys(arg))
            model[node] = row
            compact.set_row(node, row)
        elif op == "drop":
            if node in model:
                del model[node]
                compact.drop_row(node)
    return compact, model


class TestMutationReplay:
    @settings(max_examples=120, deadline=None)
    @given(_ops())
    def test_rows_match_dict_reference(self, ops):
        compact, model = _apply(ops)
        assert {n for n in ALL_IDS if compact.has_row(n)} == set(model)
        for node, row in model.items():
            assert compact.has_row(node)
            assert compact.degree(node) == len(row)
            assert compact.seq(node) == tuple(row)

    @settings(max_examples=120, deadline=None)
    @given(_ops(), st.integers(min_value=0, max_value=2**31))
    def test_seeded_draws_are_bit_identical(self, ops, seed):
        """``draw`` must consume exactly one randrange on the row length."""
        compact, model = _apply(ops)
        for node, row in model.items():
            a, b = random.Random(seed), random.Random(seed)
            got = compact.draw(node, a)
            want = row[b.randrange(len(row))] if row else None
            assert got == want
            assert a.getstate() == b.getstate()

    @settings(max_examples=60, deadline=None)
    @given(_ops())
    def test_batched_lookups_and_csr(self, ops):
        compact, model = _apply(ops)
        # Rows, interned ids without a row, and never-interned ids.
        probe = list(ALL_IDS) + [1000, 1001]
        assert list(compact.row_mask(probe)) == [n in model for n in probe]
        assert list(compact.row_mask([])) == []


class TestOverlayRewireReplay:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(NODES, NODES), min_size=1, max_size=40),
        st.lists(st.tuples(NODES, NODES), max_size=20),
    )
    def test_rewire_sequences_preserve_order(self, edges, rewires):
        """MTO-style rewires (remove one edge, append another) replay."""
        compact = CompactAdjacency()
        model = {}
        for u, v in edges:
            if u == v:
                continue
            for a, b in ((u, v), (v, u)):
                if b not in model.setdefault(a, []):
                    model[a].append(b)
                    compact.ensure_row(a)
                    compact.append(a, b)
        for u, v in rewires:
            if u in model and v in model.get(u, []):
                # remove u–v, then re-append it: lands at the row's end,
                # exactly like OverlayGraph's remove-then-add rewiring.
                model[u].remove(v)
                compact.remove(u, v)
                model[u].append(v)
                compact.append(u, v)
        for node, row in model.items():
            assert compact.seq(node) == tuple(row)
            rng_a, rng_b = random.Random(7), random.Random(7)
            assert compact.draw(node, rng_a) == row[rng_b.randrange(len(row))]


class TestInterner:
    def test_indices_are_stable_and_dense(self):
        interner = NodeInterner()
        ids = [interner.intern(n) for n in ("a", "b", "a", "c")]
        assert ids == [0, 1, 0, 2]
        assert interner.node(1) == "b"
        assert interner.index("c") == 2
        assert interner.index("missing") is None

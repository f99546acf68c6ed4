"""Encoder: forward contracts, masking, masked-LM loss, parameter counting."""

import math
import re

import numpy as np
import pytest

from emofuse import encoder
from emofuse import tensor as T
from emofuse.encoder import (
    EncoderConfig,
    EncoderState,
    SPEECH_FULL_SCALE,
    TEXT_FULL_SCALE,
    forward,
    forward_many,
    mask_corrupt,
    masked_lm_loss,
    multi_head_attention,
    param_count,
    parameter_shapes,
)
from emofuse.errors import ConfigError, InputError
from emofuse.tokens import CLS, MASK, N_SPECIALS, TokenSequence

from conftest import assert_grads_match, copy_arrays, per_head_attention, randomize_state, sum_all

TINY = EncoderConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                     vocab_size=11, max_len=12, dropout_rate=0.1)


def make_seq(ids):
    return TokenSequence("text", (CLS, *ids))


def tiny_state(seed=0):
    return EncoderState.init(TINY, np.random.default_rng(seed))


class TestForward:
    def test_output_shape(self):
        state = tiny_state()
        out = forward(make_seq([5, 6, 7]), state)
        assert out.hidden.data.shape == (4, TINY.d_model)
        assert np.array_equal(out.cls.data[0], out.hidden.data[0])

    def test_bidirectional_cls_sees_last_token(self):
        state = tiny_state()
        base = forward(make_seq([5, 6, 7]), state).cls.data
        bumped = forward(make_seq([5, 6, 8]), state).cls.data
        assert not np.allclose(base, bumped, atol=1e-12)

    def test_eval_forward_is_bitwise_deterministic(self):
        state = tiny_state()
        seq = make_seq([9, 5, 6, 10])
        a = forward(seq, state).hidden.data
        b = forward(seq, state).hidden.data
        assert np.array_equal(a, b)

    def test_train_forward_deterministic_given_seed(self):
        state = tiny_state()
        seq = make_seq([9, 5, 6])
        a = forward(seq, state, train_mode=True, rng=np.random.default_rng(4)).hidden.data
        b = forward(seq, state, train_mode=True, rng=np.random.default_rng(4)).hidden.data
        assert np.array_equal(a, b)

    def test_overlong_sequence_rejected(self):
        state = tiny_state()
        with pytest.raises(InputError):
            forward(make_seq([5] * TINY.max_len), state)

    def test_out_of_vocab_id_rejected(self):
        state = tiny_state()
        with pytest.raises(InputError):
            forward(make_seq([TINY.vocab_size]), state)

    def test_attention_rows_sum_to_one(self):
        state = tiny_state()
        x = T.gather_rows(state.params["tok_emb"], np.array(make_seq([5, 6, 7, 8, 9]).ids))
        for i in range(TINY.n_layers):
            weights = [state.params[f"layers.{i}.attn.{n}"] for n in encoder._ATTN_PARAMS]
            _, layer = multi_head_attention(x, x, *weights, TINY.n_heads)
            assert layer.shape == (TINY.n_heads, 6, 6)
            for head in layer:
                assert np.all(head >= 0.0)
                assert np.allclose(head.sum(axis=1), 1.0, atol=1e-6)

    def test_position_permutation_equivariance(self):
        state = tiny_state()
        seq = make_seq([5, 6, 7, 8])
        base = forward(seq, state).hidden.data
        i, j = 2, 4  # non-CLS positions
        ids = list(seq.ids)
        ids[i], ids[j] = ids[j], ids[i]
        permuted_state = tiny_state()
        pos = permuted_state.params["pos_emb"].data
        pos[[i, j]] = pos[[j, i]]
        swapped = forward(TokenSequence("text", tuple(ids)), permuted_state).hidden.data
        expected = base.copy()
        expected[[i, j]] = expected[[j, i]]
        assert np.allclose(swapped, expected, atol=1e-10)


class TestForwardMany:
    """Length-grouped eval forwards against one ``forward`` per sequence."""

    # Lengths 4, 2, 4, 6, 2, 4: three groups of mixed size, in mixed order.
    BODIES = ([5, 6, 7], [9], [10, 5, 8], [6, 6, 7, 8, 9], [5], [7, 7, 7])

    def test_each_row_is_its_forward_bitwise(self):
        state = randomize_state(tiny_state(), np.random.default_rng(1))
        seqs = [make_seq(body) for body in self.BODIES]
        outs = forward_many(seqs, state)
        assert len(outs) == len(seqs)
        for seq, out in zip(seqs, outs):
            ref = forward(seq, state)
            assert np.array_equal(out.hidden.data, ref.hidden.data)
            assert np.array_equal(out.cls.data, ref.cls.data)
        # Equal lengths share one stack; each hidden is a row view of it.
        assert outs[0].hidden.data.base is outs[2].hidden.data.base is not None
        assert forward_many([], state) == []

    def test_stacked_attention_rows_are_per_sequence_attention_bitwise(self):
        state = randomize_state(tiny_state(), np.random.default_rng(2))
        weights = [state.params[f"layers.0.attn.{n}"] for n in encoder._ATTN_PARAMS]
        stack = T.Tensor(np.random.default_rng(3).standard_normal((3, 4, TINY.d_model)))
        with T.no_grad():
            _, stacked = multi_head_attention(stack, stack, *weights, TINY.n_heads)
            for row in range(3):
                x = T.Tensor(stack.data[row])
                assert np.array_equal(stacked[row],
                                      multi_head_attention(x, x, *weights, TINY.n_heads)[1])

    def test_stacks_stay_within_stack_bytes(self, monkeypatch):
        state = randomize_state(tiny_state(), np.random.default_rng(3))
        seqs = [make_seq(body) for body in self.BODIES]
        whole = forward_many(seqs, state)
        # Length 4: 4 x max(2 heads x 4, d_ff 32) float64 = 1 KiB per row, so 2 rows a stack.
        monkeypatch.setattr(encoder, "STACK_BYTES", 2 * 8 * 4 * 32)
        shapes = []
        body = encoder._body
        monkeypatch.setattr(encoder, "_body",
                            lambda ids, *a, **k: shapes.append(ids.shape) or body(ids, *a, **k))
        split = forward_many(seqs, state)
        # Length 2 takes 512 bytes a row (4 rows a stack), length 6 takes 1536 (1 row).
        assert sorted(shapes) == [(1, 4), (1, 6), (2, 2), (2, 4)]
        assert all(np.array_equal(a.hidden.data, b.hidden.data) for a, b in zip(split, whole))

    def test_duplicates_run_once_and_share_their_row(self, monkeypatch):
        state = randomize_state(tiny_state(), np.random.default_rng(4))
        bodies = [*self.BODIES, *self.BODIES[::2], self.BODIES[1]]
        seqs = [make_seq(body) for body in bodies]
        rows = []
        body = encoder._body
        monkeypatch.setattr(encoder, "_body",
                            lambda ids, *a, **k: rows.extend(map(tuple, ids)) or body(ids, *a, **k))
        outs = forward_many(seqs, state)
        monkeypatch.undo()
        assert sorted(rows) == sorted({seq.ids for seq in seqs})  # each distinct one, once
        for seq, out in zip(seqs, outs):
            assert np.array_equal(out.hidden.data, forward(seq, state).hidden.data)
            twin = outs[next(i for i, s in enumerate(seqs) if s.ids == seq.ids)]
            assert out.hidden.data is twin.hidden.data

    def test_records_no_graph_and_recording_resumes(self):
        state = tiny_state()
        outs = forward_many([make_seq(body) for body in self.BODIES], state)
        assert all(out.hidden.op is None and not out.hidden.requires_grad for out in outs)
        assert forward(make_seq([5, 6]), state).hidden.op is not None

    @pytest.mark.parametrize("bad", [[5] * TINY.max_len, [TINY.vocab_size], [-1]])
    def test_bad_sequences_fail_like_forward(self, bad):
        state = tiny_state()
        seqs = [make_seq([5, 6]), make_seq(bad), make_seq([7])]
        with pytest.raises(InputError) as single:
            forward(seqs[1], state)
        with pytest.raises(InputError) as many:
            forward_many(seqs, state)
        assert str(many.value) == str(single.value)


def recorded_ops(tensor) -> dict[str, int]:
    """Names of the recorded operations reachable from ``tensor``, with counts."""
    counts: dict[str, int] = {}
    seen: set[int] = set()
    stack = [tensor]
    while stack:
        node = stack.pop()
        if node.op is None or id(node) in seen:
            continue
        seen.add(id(node))
        counts[node.op.name] = counts.get(node.op.name, 0) + 1
        stack.extend(node.op.inputs)
    return counts


class TestGraphSize:
    def test_train_forward_records_fused_ops(self):
        """Per layer: layer norms 2, linear 6 (q, k, v, o, two feed-forward),
        split_heads 3, merge_heads 1, the key transpose, two attention matmuls,
        scale, softmax, gelu, two dropouts and two residual adds; plus two
        embedding gathers, their add, a dropout and the final layer norm."""
        out = forward(make_seq([5, 6, 7, 8]), tiny_state(), train_mode=True,
                      rng=np.random.default_rng(0))
        ops = recorded_ops(out.hidden)
        n = TINY.n_layers
        assert ops == {"gather_rows": 2, "add": 1 + 2 * n, "dropout": 1 + 2 * n,
                       "layer_norm": 1 + 2 * n, "linear": 6 * n, "split_heads": 3 * n,
                       "merge_heads": n, "transpose": n, "matmul": 2 * n, "scale": n,
                       "softmax_rows": n, "gelu": n}
        assert sum(ops.values()) == 5 + 22 * n

    def test_pruned_forward_adds_two_gathers(self):
        """Reading some rows gathers the last layer's residual and query rows: two
        records more, and no other op count moves."""
        seq = make_seq([5, 6, 7, 8])
        full = recorded_ops(forward(seq, tiny_state(), train_mode=True,
                                    rng=np.random.default_rng(0)).hidden)
        pruned = recorded_ops(forward(seq, tiny_state(), train_mode=True,
                                      rng=np.random.default_rng(0), rows=np.array([2])).hidden)
        assert pruned == dict(full, gather_rows=full["gather_rows"] + 2)


class TestMultiHeadAttention:
    """The head-batched routine against the per-head reference loop."""

    # (query rows, key/value rows, d_query, d_kv, heads): self-attention at
    # test and desk widths, then both co-attention directions (one CLS query).
    CASES = [(7, 7, 16, 16, 2), (48, 48, 128, 128, 4), (1, 12, 128, 160, 4), (1, 48, 160, 128, 4)]

    @pytest.mark.parametrize("lq, lkv, d_q, d_kv, heads", CASES)
    def test_matches_per_head_oracle(self, rng, lq, lkv, d_q, d_kv, heads):
        x = T.Tensor(rng.standard_normal((lq, d_q)), requires_grad=True)
        self_attention = (lq, d_q) == (lkv, d_kv)
        kv = x if self_attention else T.Tensor(rng.standard_normal((lkv, d_kv)), requires_grad=True)
        shapes = [(d_q, d_q), (1, d_q), (d_kv, d_q), (1, d_q),
                  (d_kv, d_q), (1, d_q), (d_q, d_q), (1, d_q)]
        params = [T.Tensor(rng.normal(0.0, 0.3, size=s), requires_grad=True) for s in shapes]
        leaves = [x, *params] if self_attention else [x, kv, *params]
        probe = T.Tensor(rng.standard_normal((lq, d_q)))

        results = []
        for attend in (multi_head_attention, per_head_attention):
            out, weights = attend(x, kv, *params, heads)
            T.zero_grads(leaves)
            T.backward(sum_all(T.mul(out, probe)))
            results.append((out.data, weights, [leaf.grad for leaf in leaves]))
        (out, weights, grads), (ref_out, ref_weights, ref_grads) = results

        assert weights.shape == (heads, lq, lkv)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(weights, ref_weights)
        for got, want in zip(grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestMaskCorrupt:
    def test_rate_one_targets_every_body_position(self):
        seq = make_seq([5, 6, 7, 8, 9, 10])
        corrupted, targets = mask_corrupt(seq, 1.0, seed=0, vocab_size=11)
        assert sorted(p for p, _ in targets) == list(range(1, 7))
        assert corrupted.ids[0] == CLS

    def test_specials_never_selected(self):
        seq = TokenSequence("text", (CLS, 5, MASK, 6))
        for seed in range(20):
            _, targets = mask_corrupt(seq, 1.0, seed=seed, vocab_size=11)
            assert all(p in (1, 3) for p, _ in targets)

    def test_deterministic_given_seed(self):
        seq = make_seq([5, 6, 7, 8, 9])
        a = mask_corrupt(seq, 0.4, seed=33, vocab_size=11)
        b = mask_corrupt(seq, 0.4, seed=33, vocab_size=11)
        assert a == b

    def test_at_least_one_position_selected(self):
        seq = make_seq([5, 6, 7])
        for seed in range(50):
            _, targets = mask_corrupt(seq, 0.01, seed=seed, vocab_size=11)
            assert len(targets) >= 1

    def test_targets_record_original_ids(self):
        seq = make_seq([5, 6, 7])
        _, targets = mask_corrupt(seq, 1.0, seed=1, vocab_size=11)
        assert {(p, o) for p, o in targets} == {(1, 5), (2, 6), (3, 7)}

    def test_targeted_fraction_binomial(self):
        # Binomial oracle: over many trials the mean targeted fraction sits
        # within 3 sigma of mask_rate (forced selection adds < 1 sigma here).
        body = 30
        rate = 0.15
        trials = 10_000
        seq = make_seq(list(range(N_SPECIALS, N_SPECIALS + 6)) * 5)
        rng = np.random.default_rng(99)
        total = sum(len(mask_corrupt(seq, rate, rng, 1000)[1]) for _ in range(trials))
        expect = trials * body * rate
        sigma = math.sqrt(trials * body * rate * (1.0 - rate))
        assert abs(total - expect) <= 3.0 * sigma

    def test_eighty_ten_ten_split(self):
        seq = make_seq(list(range(N_SPECIALS, N_SPECIALS + 200)))
        rng = np.random.default_rng(5)
        n_mask = n_same = n_rand = 0
        for _ in range(50):
            corrupted, targets = mask_corrupt(seq, 0.5, rng, vocab_size=300)
            for pos, orig in targets:
                got = corrupted.ids[pos]
                if got == MASK:
                    n_mask += 1
                elif got == orig:
                    n_same += 1
                else:
                    n_rand += 1
        total = n_mask + n_same + n_rand
        assert abs(n_mask / total - 0.8) < 0.02
        # "Unchanged" also catches the random draws that hit the original id.
        assert abs(n_same / total - 0.1) < 0.02
        assert abs(n_rand / total - 0.1) < 0.02

    def test_cls_only_rejected(self):
        with pytest.raises(InputError):
            mask_corrupt(TokenSequence("text", (CLS,)), 0.5, seed=0, vocab_size=11)


class TestMaskedLmLoss:
    def test_untrained_loss_near_log_vocab(self):
        state = tiny_state(seed=3)
        seq = make_seq([5, 6, 7, 8, 9, 10, 5, 6])
        corrupted, targets = mask_corrupt(seq, 0.5, seed=0, vocab_size=TINY.vocab_size)
        loss = masked_lm_loss(state, corrupted, targets).item()
        assert abs(loss - math.log(TINY.vocab_size)) < 0.05 * math.log(TINY.vocab_size)

    def test_loss_non_negative(self, rng):
        state = tiny_state(seed=1)
        for _ in range(5):
            ids = rng.integers(N_SPECIALS, TINY.vocab_size, size=5)
            corrupted, targets = mask_corrupt(make_seq(ids), 0.5, rng, TINY.vocab_size)
            assert masked_lm_loss(state, corrupted, targets).item() >= 0.0

    def test_no_targets_rejected(self):
        state = tiny_state()
        with pytest.raises(InputError):
            masked_lm_loss(state, make_seq([5]), ())

    def test_gradients_match_finite_differences_every_parameter(self):
        # Checked at a generic O(1) parameter point; the tiny-variance init
        # point makes layer norm too ill-conditioned for the h=1e-4 oracle.
        state = randomize_state(tiny_state(seed=7), np.random.default_rng(70))
        seq = make_seq([5, 6, 7, 8])
        corrupted, targets = mask_corrupt(seq, 0.6, seed=2, vocab_size=TINY.vocab_size)
        leaves = list(state.params.values())
        assert_grads_match(
            lambda: masked_lm_loss(state, corrupted, targets),
            leaves,
        )

    @pytest.mark.parametrize("target", [
        (1.5, 5), (2.0, 5), ("2", 5), (-1, 5), (9, 5), (None, 5),
        (2, 11), (2, -1), (2, 5.0), (2, np.float64(5)),
    ], ids=["pos-1.5", "pos-2.0", "pos-str", "pos-negative", "pos-past-end", "pos-none",
            "id-past-vocab", "id-negative", "id-float", "id-np-float"])
    def test_bad_target_rejected_up_front_by_name(self, target):
        """A target must be an integer position inside the sequence (of length 9
        here) and an integer original ID inside the vocabulary; the error names it."""
        corrupted = make_seq([5, 6, 7, 8, 9, 10, 5, 6])
        with pytest.raises(InputError, match=re.escape(f"masked-LM target {target!r}")):
            masked_lm_loss(tiny_state(), corrupted, ((3, 7), target))


def full_masked_lm_loss(state, corrupted, targets, train_mode=False, rng=None):
    """The unpruned masked-LM loss, the oracle of the pruned one: every row through
    the whole encoder, then the target rows, the tied head and cross-entropy."""
    hidden = forward(corrupted, state, train_mode=train_mode, rng=rng).hidden
    picked = T.gather_rows(hidden, np.array([p for p, _ in targets]))
    logits = T.linear(picked, T.transpose(state.params["tok_emb"]), state.params["mlm_bias"])
    return T.cross_entropy_rows(logits, np.array([o for _, o in targets]))


class TestPrunedMaskedLmLoss:
    """``masked_lm_loss`` runs the last layer at the target rows only; it must equal
    the full forward's loss and gradients up to BLAS rounding, and draw the same
    dropout masks from the same rng stream."""

    SEQ = make_seq([5, 6, 7, 8, 9, 10, 5, 6, 7])  # body positions 1..9

    @staticmethod
    def loss_and_grads(loss_fn, state, targets, train_mode):
        rng = np.random.default_rng(11)
        T.zero_grads(state.params.values())
        loss = loss_fn(state, TestPrunedMaskedLmLoss.SEQ, targets, train_mode=train_mode,
                       rng=rng)
        T.backward(loss)
        grads = {n: p.grad for n, p in state.params.items()}
        return loss.item(), grads, rng.random()

    @pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("targets", [
        ((4, 7),),
        ((1, 5), (3, 7), (4, 8), (8, 6)),
        ((9, 7), (2, 6)),
        tuple((pos, 5 + pos % 6) for pos in range(1, 10)),
    ], ids=["k1", "several", "unordered", "every-body-position"])
    def test_loss_and_every_gradient_match_the_full_forward(self, targets, train_mode):
        state = randomize_state(tiny_state(seed=4), np.random.default_rng(40))
        want, want_grads, want_next = self.loss_and_grads(full_masked_lm_loss, state,
                                                          targets, train_mode)
        got, got_grads, got_next = self.loss_and_grads(masked_lm_loss, state, targets,
                                                       train_mode)
        assert got_next == want_next  # the dropouts drew the same stream
        assert abs(got - want) <= 1e-12 * abs(want)
        assert got_grads.keys() == want_grads.keys()
        largest = max(np.abs(g).max() for g in want_grads.values())
        for name, g in want_grads.items():
            assert got_grads[name].shape == g.shape, name
            if name.endswith("attn.bk"):
                # Exactly zero in exact arithmetic: a constant added to every key
                # shifts each score row by a constant, which softmax ignores. Both
                # paths leave rounding noise only.
                assert max(np.abs(g).max(), np.abs(got_grads[name]).max()) <= 1e-12 * largest
            else:
                assert np.abs(got_grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_last_layer_feed_forward_sees_only_the_target_rows(self, monkeypatch):
        shapes = []
        gelu = T.gelu

        def probe(x):
            shapes.append(x.shape)
            return gelu(x)

        monkeypatch.setattr(T, "gelu", probe)
        targets = ((2, 6), (5, 9), (7, 5))
        masked_lm_loss(tiny_state(), self.SEQ, targets)
        assert shapes == [(len(self.SEQ), TINY.d_ff)] * (TINY.n_layers - 1) + [(3, TINY.d_ff)]


class TestParamCount:
    def test_closed_form_matches_enumeration_on_random_configs(self, rng):
        for _ in range(5):
            heads = int(rng.integers(1, 4))
            cfg = EncoderConfig(
                n_layers=int(rng.integers(1, 4)),
                d_model=int(heads * rng.integers(2, 9)),
                n_heads=heads,
                d_ff=int(rng.integers(4, 40)),
                vocab_size=int(rng.integers(7, 50)),
                max_len=int(rng.integers(2, 30)),
            )
            by_shapes = sum(int(np.prod(s)) for _, s, _ in parameter_shapes(cfg))
            by_arrays = EncoderState.init(cfg, rng).actual_param_count()
            assert param_count(cfg) == by_shapes == by_arrays

    def test_linear_in_depth(self):
        base = EncoderConfig(2, 16, 2, 32, 11, 8)
        deeper = EncoderConfig(4, 16, 2, 32, 11, 8)
        per_layer = (param_count(deeper) - param_count(base)) // 2
        assert param_count(deeper) == param_count(base) + 2 * per_layer
        assert per_layer == 4 * 16 * 16 + 4 * 16 + 4 * 16 + 2 * 16 * 32 + 32 + 16

    def test_vocab_term_reflects_weight_tying(self):
        # Growing the vocabulary adds embedding rows plus one bias each:
        # the tied prediction head contributes no new matrix.
        small = EncoderConfig(2, 16, 2, 32, 11, 8)
        large = EncoderConfig(2, 16, 2, 32, 31, 8)
        assert param_count(large) - param_count(small) == 20 * (16 + 1)

    def test_full_scale_configs_report_expected_shapes(self):
        assert (SPEECH_FULL_SCALE.n_layers, SPEECH_FULL_SCALE.d_model, SPEECH_FULL_SCALE.max_len) == (12, 768, 2048)
        assert (TEXT_FULL_SCALE.n_layers, TEXT_FULL_SCALE.d_model, TEXT_FULL_SCALE.max_len) == (24, 1024, 512)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            EncoderConfig(2, 15, 2, 32, 11, 8)
        with pytest.raises(ConfigError):
            EncoderConfig(2, 16, 2, 32, 11, 1)


class TestStateInit:
    def test_init_is_deterministic(self):
        a = copy_arrays(tiny_state(seed=5))
        b = copy_arrays(tiny_state(seed=5))
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_biases_zero_gains_one(self):
        state = tiny_state()
        for name, shape, kind in parameter_shapes(TINY):
            data = state.params[name].data
            if kind == "bias":
                assert np.all(data == 0.0), name
            elif kind == "gain":
                assert np.all(data == 1.0), name

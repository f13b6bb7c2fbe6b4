"""Property suite for burst fault injection and correction-in-the-loop ECC.

Four pinned properties plus the end-to-end accuracy regime:

(a) **Burst injection bit-identity** — for fixed seeds the packed
    :meth:`BurstErrorModel.flip_word_mask` path must equal the boolean
    reference :meth:`flip_mask` expansion exactly, leaving the RNG in the
    same state; the device burst overlay must agree between ``read_words``
    and ``read_bits``.
(b) **Correction exactness** — any corruption touching at most ``t``
    symbols of a codeword decodes back to the stored bits exactly.
(c) **Detection honesty** — corruption beyond ``t`` symbols is flagged
    uncorrectable and (with the default zero miscorrection rate) is never
    silently decoded to wrong data.
(d) **Monotonicity** — on a seeded BER grid the post-ECC flipped-bit count
    is monotone non-increasing in raw BER improvements: corrected flips
    never exceed raw flips, and for the nested-weak-set uniform model the
    per-codeword damage grows monotonically with BER.

The end-to-end pin: a BER regime where the raw static-store accuracy
collapses below 0.5 while the RS-corrected store stays above 0.9, with a
non-empty uncorrectable tail in the sweep accounting, plus cross-process
``PlanDispatcher`` parity for corrected stores.
"""

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner
from repro.core.ecc import EccReport, RsCodecModel, RsCodecSpec, make_codec
from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import (
    BurstErrorModel,
    BurstProfile,
    DramLayout,
    UniformErrorModel,
    make_error_model,
)
from repro.dram.injection import (
    BitErrorInjector,
    inject_bit_errors,
    inject_bit_errors_reference,
)
from repro.dram.packed import _hash_uniform, xor_mask_from_positions
from repro.engine.session import InferenceSession, ReadSemantics
from repro.nn.tensor import DataKind
from repro.parallel import PlanDispatcher

from tests.conftest import TEST_GEOMETRY

SPEC = RsCodecSpec()
T = SPEC.correctable_symbols
DATA_BITS = SPEC.data_bits


def _bits_of(words, bits_per_word):
    shifts = np.arange(bits_per_word, dtype=np.uint64)
    return ((np.asarray(words, dtype=np.uint64)[:, None] >> shifts)
            & np.uint64(1)).astype(bool).ravel()


def _flip_bits(words, bits_per_word, positions):
    out = np.asarray(words, dtype=np.uint64).copy()
    for position in positions:
        word, bit = divmod(int(position), bits_per_word)
        out[word] ^= np.uint64(1) << np.uint64(bit)
    return out


class TestBurstProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurstProfile(single_fraction=1.5)
        with pytest.raises(ValueError):
            BurstProfile(span_weights=((0, 1.0),))
        with pytest.raises(ValueError):
            BurstProfile(span_weights=((8, -1.0),))
        with pytest.raises(ValueError):
            BurstProfile(single_fraction=0.5, span_weights=((8, 0.0),))

    def test_normalized_weights(self):
        profile = BurstProfile(span_weights=((8, 1.0), (16, 3.0)))
        assert profile.normalized_weights() == pytest.approx((0.25, 0.75))

    def test_all_singles_profile_allowed(self):
        model = BurstErrorModel(1e-3, BurstProfile(single_fraction=1.0))
        assert model.span_weak_fractions == pytest.approx(
            (0.0,) * len(model.profile.span_weights))


class TestBurstInjectionBitIdentity:
    """Property (a): packed path == boolean reference, same RNG stream."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("ber", [1e-4, 1e-3, 1e-2])
    def test_packed_matches_reference(self, seed, ber):
        model = BurstErrorModel(ber, seed=seed)
        layout = DramLayout(row_size_bits=4096, start_bit=128)
        values = np.random.default_rng(seed).standard_normal(4096).astype(
            np.float32)
        rng_a = np.random.default_rng(99 + seed)
        rng_b = np.random.default_rng(99 + seed)
        packed = inject_bit_errors(values, 32, model, layout, rng_a)
        reference = inject_bit_errors_reference(values, 32, model, layout,
                                                rng_b)
        assert packed.tobytes() == reference.tobytes()
        assert packed.tobytes() != values.tobytes()   # corruption happened
        # Same stream consumed: the next draws must agree too.
        assert rng_a.random(8).tobytes() == rng_b.random(8).tobytes()

    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_precisions_and_layouts(self, bits):
        model = BurstErrorModel(5e-3, seed=2)
        for layout in (DramLayout(), DramLayout(row_size_bits=512,
                                                start_bit=77)):
            values = np.random.default_rng(4).standard_normal(512).astype(
                np.float32)
            rng_a = np.random.default_rng(11)
            rng_b = np.random.default_rng(11)
            packed = inject_bit_errors(values, bits, model, layout, rng_a)
            reference = inject_bit_errors_reference(values, bits, model,
                                                    layout, rng_b)
            assert packed.tobytes() == reference.tobytes()

    def test_spans_actually_fire(self):
        # An all-burst profile at a high rate must flip contiguous spans.
        model = BurstErrorModel(
            1e-2, BurstProfile(single_fraction=0.0, span_weights=((8, 1.0),)),
            seed=0)
        layout = DramLayout()
        words = np.zeros(1024, dtype=np.uint64)
        xor = model.flip_word_mask(words, 32, layout,
                                   np.random.default_rng(0))
        flipped = _bits_of(xor, 32)
        assert flipped.any()
        # Every flipped bit belongs to a fully-flipped aligned 8-bit span.
        spans = np.nonzero(flipped)[0] // 8
        for span in np.unique(spans):
            assert flipped[span * 8:(span + 1) * 8].all()

    def test_device_burst_overlay_words_match_bits(self, device_vendor_a):
        device = ApproximateDram("A", geometry=TEST_GEOMETRY, seed=1,
                                 burst_profile=BurstProfile())
        op_point = DramOperatingPoint.from_reductions(
            delta_vdd=0.30, delta_trcd_ns=5.5,
            nominal_vdd=device.nominal_vdd,
            nominal_timing=device.nominal_timing)
        words = np.random.default_rng(3).integers(
            0, 1 << 32, size=512, dtype=np.uint64)
        observed_words = device.read_words(
            words, 32, 0, op_point, rng=np.random.default_rng(5))
        observed_bits = device.read_bits(
            _bits_of(words, 32), 0, op_point, rng=np.random.default_rng(5))
        assert (_bits_of(observed_words, 32) == observed_bits).all()
        # The burst overlay adds flips relative to the burst-free device.
        plain = device_vendor_a.read_words(
            words, 32, 0, op_point, rng=np.random.default_rng(5))
        assert (observed_words ^ words).astype(bool).sum() >= \
            (plain ^ words).astype(bool).sum()


class TestCodecCorrection:
    """Properties (b) and (c): exactness below t, honesty above it."""

    def test_spec_shape(self):
        assert SPEC.correctable_symbols == 4
        assert SPEC.data_bits == 512
        assert SPEC.total_symbols == 72
        with pytest.raises(ValueError):
            RsCodecSpec(symbol_bits=0)

    @pytest.mark.parametrize("n_symbols", range(0, T + 1))
    def test_at_most_t_symbol_errors_corrected_exactly(self, n_symbols):
        rng = np.random.default_rng(n_symbols)
        stored = rng.integers(0, 1 << 32, size=64, dtype=np.uint64)  # 4 cw
        codec = RsCodecModel()
        for codeword in range(4):
            symbols = rng.choice(SPEC.data_symbols, size=n_symbols,
                                 replace=False)
            positions = []
            for symbol in symbols:
                base = codeword * DATA_BITS + int(symbol) * SPEC.symbol_bits
                # Corrupt 1..8 bits of the symbol — any pattern must revert.
                n_bits = int(rng.integers(1, SPEC.symbol_bits + 1))
                positions.extend(base + np.random.default_rng(symbol)
                                 .choice(SPEC.symbol_bits, size=n_bits,
                                         replace=False))
            observed = _flip_bits(stored, 32, positions)
            corrected, report = codec.correct_words(stored, observed, 32)
            assert corrected.tobytes() == stored.tobytes()
            if n_symbols:
                assert report.corrected_codewords == 1
                assert report.corrected_symbols == n_symbols
                assert report.uncorrectable_codewords == 0
            else:
                assert report.corrected_codewords == 0

    @pytest.mark.parametrize("n_symbols", [T + 1, T + 3, 16])
    def test_beyond_t_flagged_never_silently_wrong(self, n_symbols):
        rng = np.random.default_rng(n_symbols)
        stored = rng.integers(0, 1 << 32, size=16, dtype=np.uint64)   # 1 cw
        symbols = rng.choice(SPEC.data_symbols, size=n_symbols,
                             replace=False)
        positions = [int(s) * SPEC.symbol_bits for s in symbols]
        observed = _flip_bits(stored, 32, positions)
        corrected, report = RsCodecModel().correct_words(stored, observed, 32)
        # Flagged, and passed through untouched: the caller sees exactly the
        # corruption the decoder could not fix — never a third value.
        assert report.uncorrectable_codewords == 1
        assert report.corrected_codewords == 0
        assert report.miscorrected_codewords == 0
        assert corrected.tobytes() == observed.tobytes()

    def test_mixed_codewords_accounted_independently(self):
        rng = np.random.default_rng(9)
        stored = rng.integers(0, 1 << 32, size=48, dtype=np.uint64)   # 3 cw
        positions = [0 * DATA_BITS + 0,                   # cw0: 1 symbol
                     1 * DATA_BITS + 0, 1 * DATA_BITS + 8,
                     1 * DATA_BITS + 16, 1 * DATA_BITS + 24,
                     1 * DATA_BITS + 32]                  # cw1: 5 symbols > t
        observed = _flip_bits(stored, 32, positions)
        corrected, report = RsCodecModel().correct_words(stored, observed, 32)
        assert report.codewords == 3
        assert report.corrected_codewords == 1
        assert report.uncorrectable_codewords == 1
        bits = _bits_of(corrected ^ stored, 32)
        assert not bits[:DATA_BITS].any()                 # cw0 reverted
        assert bits[DATA_BITS:2 * DATA_BITS].sum() == 5   # cw1 untouched
        assert not bits[2 * DATA_BITS:].any()             # cw2 clean

    def test_miscorrection_tail_garbles_and_counts(self):
        rng = np.random.default_rng(1)
        stored = rng.integers(0, 1 << 32, size=16, dtype=np.uint64)
        positions = [s * SPEC.symbol_bits for s in range(T + 2)]
        observed = _flip_bits(stored, 32, positions)
        codec = RsCodecModel(miscorrection_rate=1.0, seed=0)
        corrected, report = codec.correct_words(stored, observed, 32)
        assert report.miscorrected_codewords == 1
        assert report.uncorrectable_codewords == 0
        assert corrected.tobytes() != observed.tobytes()
        assert corrected.tobytes() != stored.tobytes()

    def test_report_merge_and_dict(self):
        a = EccReport(codewords=2, corrected_codewords=1,
                      corrected_symbols=3)
        a.merge(EccReport(codewords=1, uncorrectable_codewords=1))
        assert a.as_dict() == {"codewords": 3, "corrected_codewords": 1,
                               "corrected_symbols": 3,
                               "uncorrectable_codewords": 1,
                               "miscorrected_codewords": 0}

    def test_make_codec_registry(self):
        codec = make_codec("rs72_64", seed=3)
        assert codec.name() == "rs(72,64)x8"
        assert codec.seed == 3
        with pytest.raises(ValueError):
            make_codec("hamming")

    def test_empty_and_shape_mismatch(self):
        codec = RsCodecModel()
        corrected, report = codec.correct_words(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64), 32)
        assert corrected.size == 0 and report.codewords == 0
        with pytest.raises(ValueError):
            codec.correct_words(np.zeros(2, dtype=np.uint64),
                                np.zeros(3, dtype=np.uint64), 32)


def _reference_correct_words(codec, stored, observed, bits_per_word, key=0):
    """Bit-expansion decode: one boolean per stored bit, padded per codeword.

    The straightforward model ``RsCodecModel.correct_words`` must match
    exactly: a symbol is corrupted when any of its bits differs, codewords
    with 1..t corrupted symbols revert every flipped bit, and uncorrectable
    codewords that win the miscorrection lottery (hash stream 602 over
    ``codeword index + key``) get their first symbol garbled.
    """
    spec = codec.spec
    num_bits = stored.size * bits_per_word
    shifts = np.arange(bits_per_word, dtype=np.uint64)
    diff = ((stored ^ observed)[:, None] >> shifts) & np.uint64(1)
    n_codewords = -(-num_bits // spec.data_bits)
    padded = np.zeros(n_codewords * spec.data_bits, dtype=bool)
    padded[:num_bits] = diff.astype(bool).ravel()
    symbol_errors = padded.reshape(n_codewords, spec.data_symbols,
                                   spec.symbol_bits).any(axis=2)
    counts = symbol_errors.sum(axis=1)
    t = spec.correctable_symbols
    correctable = (counts > 0) & (counts <= t)
    uncorrectable = counts > t
    lottery = _hash_uniform(np.arange(n_codewords, dtype=np.uint64)
                            + np.uint64(key), codec.seed, stream=602)
    miscorrected = uncorrectable & (lottery < codec.miscorrection_rate)
    revert = padded & np.repeat(correctable, spec.data_bits)
    for codeword in np.flatnonzero(miscorrected):
        start = codeword * spec.data_bits
        revert[start:start + spec.symbol_bits] ^= True
    xor = xor_mask_from_positions(np.flatnonzero(revert[:num_bits]),
                                  stored.size, bits_per_word)
    report = {
        "codewords": int(n_codewords),
        "corrected_codewords": int(correctable.sum()),
        "corrected_symbols": int(symbol_errors[correctable].sum()),
        "uncorrectable_codewords": int((uncorrectable & ~miscorrected).sum()),
        "miscorrected_codewords": int(miscorrected.sum()),
    }
    return observed ^ xor, report


class TestWordLevelDecode:
    """The word-level symbol accounting equals the bit-expansion reference."""

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("bits_per_word", [4, 8, 16, 32])
    def test_matches_bit_expansion_reference(self, bits_per_word, rate):
        rng = np.random.default_rng(bits_per_word * 10 + int(rate * 10))
        codewords_of_words = DATA_BITS // bits_per_word
        for trial in range(25):
            # Whole codewords plus a partial last one.
            size = (int(rng.integers(0, 4)) * codewords_of_words
                    + int(rng.integers(1, codewords_of_words)))
            stored = rng.integers(0, 1 << bits_per_word, size=size,
                                  dtype=np.uint64)
            density = float(rng.choice([1e-3, 1e-2, 5e-2, 0.3]))
            flips = rng.random((size, bits_per_word)) < density
            xor = (flips.astype(np.uint64)
                   << np.arange(bits_per_word, dtype=np.uint64)).sum(
                       axis=1, dtype=np.uint64)
            observed = stored ^ xor
            codec = RsCodecModel(miscorrection_rate=rate, seed=trial % 3)
            key = int(rng.integers(0, 1 << 20))
            corrected, report = codec.correct_words(stored, observed,
                                                    bits_per_word, key=key)
            expected, expected_report = _reference_correct_words(
                codec, stored, observed, bits_per_word, key=key)
            assert corrected.dtype == np.uint64
            np.testing.assert_array_equal(corrected, expected)
            assert report.as_dict() == expected_report

    @pytest.mark.parametrize("symbol_bits, bits_per_word",
                             [(4, 32), (16, 8), (32, 4), (8, 64)])
    def test_nesting_widths_match_reference(self, symbol_bits, bits_per_word):
        rng = np.random.default_rng(symbol_bits + bits_per_word)
        codec = RsCodecModel(RsCodecSpec(symbol_bits=symbol_bits,
                                         data_symbols=3, parity_symbols=2),
                             miscorrection_rate=0.5)
        stored = rng.integers(0, 1 << 62, size=37, dtype=np.uint64)
        stored &= np.uint64((1 << bits_per_word) - 1)
        flips = rng.random((stored.size, bits_per_word)) < 0.05
        observed = stored ^ (flips.astype(np.uint64) << np.arange(
            bits_per_word, dtype=np.uint64)).sum(axis=1, dtype=np.uint64)
        corrected, report = codec.correct_words(stored, observed, bits_per_word)
        expected, expected_report = _reference_correct_words(
            codec, stored, observed, bits_per_word)
        np.testing.assert_array_equal(corrected, expected)
        assert report.as_dict() == expected_report

    @pytest.mark.parametrize("symbol_bits, bits_per_word", [(8, 12), (3, 8),
                                                            (16, 24)])
    def test_non_nesting_widths_rejected(self, symbol_bits, bits_per_word):
        codec = RsCodecModel(RsCodecSpec(symbol_bits=symbol_bits))
        words = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="do not nest"):
            codec.correct_words(words, words, bits_per_word)


class TestMonotonicity:
    """Property (d): post-ECC damage is monotone on a seeded BER grid."""

    BERS = (1e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2)

    @staticmethod
    def _damage(model, words, codec, seed):
        layout = DramLayout()
        rng = np.random.default_rng(seed)
        xor = model.flip_word_mask(words, 32, layout, rng)
        raw = int(_bits_of(xor, 32).sum())
        corrected, _ = codec.correct_words(words, words ^ xor, 32)
        post = int(_bits_of(corrected ^ words, 32).sum())
        return raw, post

    def test_uniform_model_post_ecc_monotone_in_ber(self):
        # UniformErrorModel's weak sets are nested across BER (hash-compare
        # against a monotone threshold) and the per-bit uniforms are
        # stream-exact, so raw flips per codeword — and hence post-ECC
        # damage — grow pointwise with BER for a fixed seed.
        words = np.random.default_rng(0).integers(
            0, 1 << 32, size=2048, dtype=np.uint64)
        codec = RsCodecModel()
        base = UniformErrorModel(0.5, 0.5, seed=0)
        last_raw = last_post = -1
        for ber in self.BERS:
            raw, post = self._damage(base.with_ber(ber), words, codec, 42)
            assert post <= raw            # correction never adds damage
            assert raw >= last_raw        # nested weak sets: raw grows
            assert post >= last_post      # and so does the surviving tail
            last_raw, last_post = raw, post

    @pytest.mark.parametrize("seed", [0, 3])
    def test_burst_model_correction_never_increases_damage(self, seed):
        words = np.random.default_rng(1).integers(
            0, 1 << 32, size=2048, dtype=np.uint64)
        codec = RsCodecModel()
        for ber in self.BERS:
            model = BurstErrorModel(ber, seed=seed)
            raw, post = self._damage(model, words, codec, 7 + seed)
            assert post <= raw


class TestCorrectionInTheLoop:
    """End-to-end: corrected static stores, sweeps, cross-process parity."""

    def _session(self, network, dataset, ber, *, correction="rs72_64"):
        return InferenceSession.from_error_model(
            network, dataset, make_error_model(4, ber, seed=0),
            data_kinds={DataKind.WEIGHT}, seed=0,
            semantics=ReadSemantics.STATIC_STORE, correction=correction)

    def test_session_correction_string_resolves(self, lenet_clone):
        network, dataset, _ = lenet_clone
        session = self._session(network, dataset, 1e-3)
        assert session.injector.ecc is not None
        assert session.injector.ecc.name() == "rs(72,64)x8"
        session.invalidate()

    def test_corrected_store_deterministic_and_counted(self, lenet_clone):
        network, dataset, _ = lenet_clone
        first = self._session(network, dataset, 1e-3)
        store_a = {k: v.tobytes() for k, v in first.materialize().items()}
        stats = first.injector.ecc_stats
        assert stats["corrected_codewords"] > 0
        assert stats["per_tensor"]          # per-tensor accounting populated
        first.invalidate()
        second = self._session(network, dataset, 1e-3)
        store_b = {k: v.tobytes() for k, v in second.materialize().items()}
        assert store_a == store_b
        second.invalidate()

    def test_fingerprint_separates_corrected_store(self, lenet_clone):
        # ecc participates in the injector fingerprint: a corrected session
        # must not reuse a raw session's materialized bytes.
        network, dataset, _ = lenet_clone
        raw = self._session(network, dataset, 1e-3, correction=None)
        corrected = self._session(network, dataset, 1e-3)
        raw_store = {k: v.tobytes() for k, v in raw.materialize().items()}
        ecc_store = {k: v.tobytes()
                     for k, v in corrected.materialize().items()}
        assert raw_store != ecc_store
        raw.invalidate()
        corrected.invalidate()

    def test_pinned_accuracy_regime(self, lenet_trained):
        """The acceptance pin: at BER 1e-3 the raw burst-corrupted store
        collapses while the RS-corrected store serves near-clean accuracy,
        and the sweep reports a non-empty uncorrectable tail."""
        network, dataset, spec = lenet_trained
        model = make_error_model(4, 1e-3, seed=0)
        with ExperimentRunner(network.clone(), dataset, metric=spec.metric,
                              seed=0,
                              semantics=ReadSemantics.STATIC_STORE) as runner:
            sweep = runner.ecc_sweep(model, [1e-3, 3e-2])
        pin = sweep[1e-3]
        assert pin["raw"] < 0.5
        assert pin["corrected"] >= 0.9
        assert pin["corrected_codewords"] > 0
        assert pin["uncorrectable_codewords"] > 0      # tail is non-empty
        # Deep in the tail the code is overwhelmed: corrected accuracy
        # degrades toward raw and the uncorrectable count explodes.
        tail = sweep[3e-2]
        assert tail["uncorrectable_codewords"] > pin["uncorrectable_codewords"]

    def test_ecc_sweep_deterministic(self, lenet_trained):
        network, dataset, spec = lenet_trained
        model = make_error_model(4, 1e-3, seed=0)

        def run():
            with ExperimentRunner(network.clone(), dataset,
                                  metric=spec.metric, seed=0,
                                  semantics=ReadSemantics.STATIC_STORE
                                  ) as runner:
                return runner.ecc_sweep(model, [1e-3])
        assert run() == run()

    def test_ecc_sweep_points_isolated(self, lenet_trained):
        """Each point's scores and decode counts are its own: a two-point
        sweep equals the one-point sweep at each of its BERs."""
        network, dataset, spec = lenet_trained
        model = make_error_model(4, 1e-3, seed=0)
        bers = [1e-3, 3e-2]

        def run(points):
            with ExperimentRunner(network.clone(), dataset,
                                  metric=spec.metric, seed=0,
                                  semantics=ReadSemantics.STATIC_STORE
                                  ) as runner:
                return runner.ecc_sweep(model, points)
        both = run(bers)
        for ber in bers:
            assert both[ber] == run([ber])[ber]

    def test_plan_dispatcher_matches_corrected_session_predict(
            self, lenet_clone):
        # Cross-process parity, mirroring test_parallel.py: the exported
        # post-correction store must serve tobytes-identical results.
        network, dataset, _ = lenet_clone
        session = self._session(network, dataset, 1e-3)
        inputs = np.asarray(dataset.val_x[:10])
        reference = session.predict(inputs, pad_to=4)
        assert session.injector.ecc_stats["corrected_codewords"] > 0
        dispatcher = PlanDispatcher(session, processes=2, pad_to=4)
        try:
            assert dispatcher(inputs).tobytes() == reference.tobytes()
        finally:
            dispatcher.close()
            session.invalidate()

"""Tests for WAV I/O, the four augmentation transforms, and the dataset pipeline."""

import gc
import hashlib
import math
import re
import struct
import tempfile
import wave
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dominant_frequency,
    make_tone,
    oracle_best_analysis_position,
    oracle_overlap_add,
    oracle_window_sums,
    resolve_wav,
    same_bits,
    wave_bytes,
    write_wav_at_rate,
)

from langwce import audio
from langwce.audio import (
    AudioClip,
    AugmentSpec,
    add_gaussian_noise,
    apply_gain,
    augment_clip,
    augment_dataset,
    pitch_shift,
    read_wav,
    time_stretch,
    write_wav,
)
from langwce.manifest import ManifestEntry, read_manifest, write_manifest
from langwce.synthlang import make_languages, synthesize_utterance
from langwce.util import DataFormatError

FRAME = 400  # 25 ms at 16 kHz
PCM_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)  # a 16-byte fmt chunk read_wav accepts


def sine_with(index, value):
    """A 4,000-sample sine with one sample replaced."""
    x = make_tone(500, seconds=0.25).samples.copy()
    x[index] = value
    return x


def riff(chunks):
    """A RIFF/WAVE file of ``chunks`` (id, payload) in order, each payload of odd size followed by its pad byte."""
    body = b"WAVE" + b"".join(
        name + struct.pack("<I", len(payload)) + payload + bytes(len(payload) % 2) for name, payload in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestAudioClip:
    @pytest.mark.parametrize(
        "samples, refusal",
        [
            ([], "^no samples$"),
            ([0.5, math.nan], r"^sample 1 is nan, not in \[-1, 1\]$"),
            ([0.5, 0.0, math.inf], r"^sample 2 is inf, not in \[-1, 1\]$"),
            ([-math.inf, 0.5], r"^sample 0 is -inf, not in \[-1, 1\]$"),
            # finite, but time_stretch's sum of squares of a window holding it overflows
            (sine_with(1000, 1e200), r"^sample 1000 is 1e\+200, not in \[-1, 1\]$"),
            ([0.0, 1 + 2**-52], r"^sample 1 is 1.0000000000000002, not in \[-1, 1\]$"),
            ([-1 - 2**-52, 0.0], r"^sample 0 is -1.0000000000000002, not in \[-1, 1\]$"),
            ([1.0], None),
            ([-1.0], None),
            ([-0.0], None),
        ],
        ids=["empty", "nan", "inf", "minus-inf", "1e200", "above-one", "below-minus-one", "one", "minus-one", "minus-zero"],
    )
    def test_sample_rule(self, samples, refusal):
        # refusal is the message a clip of these samples is refused with, or None where it is built as given
        if refusal is None:
            assert same_bits(AudioClip(samples).samples, np.array(samples))
        else:
            with pytest.raises(ValueError, match=refusal):
                AudioClip(samples)


class TestWavIO:
    def test_zero_clip_round_trips_exactly(self, tmp_path):
        clip = AudioClip(np.zeros(16000))
        write_wav(tmp_path / "z.wav", clip)
        back = read_wav(tmp_path / "z.wav")
        assert back.sample_rate == 16000
        assert np.array_equal(back.samples, clip.samples)
        with wave.open(str(tmp_path / "z.wav"), "rb") as w:
            assert w.getframerate() == 16000

    def test_random_clip_round_trips_within_quantum(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = AudioClip(rng.uniform(-1, 1, 8000))
        write_wav(tmp_path / "r.wav", clip)
        back = read_wav(tmp_path / "r.wav")
        assert np.abs(back.samples - clip.samples).max() <= 1.0 / 32768

    def test_full_scale_values_survive(self, tmp_path):
        clip = AudioClip(np.array([1.0, -1.0, 0.999999]))
        write_wav(tmp_path / "f.wav", clip)
        back = read_wav(tmp_path / "f.wav")
        assert np.abs(back.samples - clip.samples).max() <= 1.0 / 32768

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64))
    @example(samples=[1.0, -1.0, 0.999999]).via("full scale, and a value that rounds up to it")
    @example(samples=[0.0] * 16000).via("a second of silence")
    def test_reader_returns_writers_16_bit_quantization(self, samples):
        # the nearest multiple of 2^-15 (ties to even), the largest positive one 1 - 2^-15
        quantized = np.clip(np.round(np.array(samples) * 32768), -32768, 32767) / 32768
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "q.wav"
            write_wav(path, AudioClip(np.array(samples)))
            assert np.array_equal(read_wav(path).samples, quantized)

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(16000)
            w.writeframes(bytes(100))
        with pytest.raises(DataFormatError, match="16-bit"):
            read_wav(path)

    def test_other_rate_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "8khz.wav"
        write_wav_at_rate(path, 8000, make_tone(500).samples)
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: sampled at 8000 Hz, need 16000 Hz$"):
            read_wav(path)

    def test_clip_carries_no_rate(self):
        with pytest.raises(TypeError, match="sample_rate"):
            AudioClip(np.zeros(4), sample_rate=8000)
        assert AudioClip(np.zeros(4)).sample_rate == audio.SAMPLE_RATE == 16000

    def test_empty_wav_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav_at_rate(path, 16000, [])  # an empty clip cannot be built
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: no samples$"):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(bytes(400))
        with pytest.raises(DataFormatError, match="mono"):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        # minimal RIFF/WAVE with fmt audio format 3 (IEEE float)
        path = tmp_path / "float.wav"
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", 0)
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(DataFormatError):
            read_wav(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(b"RIFF\x10\x00\x00\x00WAVE")
        with pytest.raises(DataFormatError):
            read_wav(path)

    @pytest.mark.parametrize("cut, kept", [(500, 1500), (501, 1499), (2000, 0)])
    def test_truncated_data_chunk_rejected_naming_the_file(self, tmp_path, cut, kept):
        path = tmp_path / "cut.wav"
        write_wav(path, AudioClip(np.full(1000, 0.25)))
        path.write_bytes(path.read_bytes()[:-cut])
        message = rf"^{re.escape(str(path))}: data chunk holds {kept} of the 2000 bytes its header declares$"
        with pytest.raises(DataFormatError, match=message):
            read_wav(path)

    def test_extensible_format_rejected_naming_the_file(self, tmp_path):
        # WAVE_FORMAT_EXTENSIBLE holding 16-bit mono PCM: some Python versions' wave reads it, read_wav never does
        path = tmp_path / "extensible.wav"
        pcm_guid = bytes.fromhex("0100000000001000800000aa00389b71")
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 32000, 2, 16, 22, 16, 4) + pcm_guid
        path.write_bytes(riff([(b"fmt ", fmt), (b"data", bytes(4))]))
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: format tag 0xfffe, need PCM \(0x0001\)$"):
            read_wav(path)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "not a RIFF/WAVE file"),
            (b"RIFX" + riff([(b"fmt ", PCM_FMT), (b"data", bytes(4))])[4:], "not a RIFF/WAVE file"),
            (riff([(b"data", bytes(4)), (b"fmt ", PCM_FMT)]), "data chunk before fmt chunk"),
            (riff([(b"fmt ", PCM_FMT[:14]), (b"data", bytes(4))]), "truncated WAV header"),
            (riff([(b"fmt ", PCM_FMT)]), "truncated WAV header"),
            (riff([(b"fmt ", PCM_FMT[:14] + struct.pack("<H", 12)), (b"data", bytes(4))]), "12-bit samples, need 16-bit"),
        ],
        ids=["empty", "rifx", "data-before-fmt", "fmt-of-14-bytes", "no-data-chunk", "12-bit"],
    )
    def test_malformed_header_rejected_naming_the_file(self, tmp_path, content, message):
        path = tmp_path / "bad.wav"
        path.write_bytes(content)
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_wav(path)


@st.composite
def sample_values(draw):
    """1 to 3,000 uniform 16-bit sample values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(-32768, 32768, draw(st.integers(1, 3000))).astype("<i2")


class TestWavAgainstWave:
    @settings(max_examples=100, deadline=None)
    @given(
        ints=sample_values(),
        chunks=st.lists(
            st.tuples(st.sampled_from([b"LIST", b"junk", b"fact", b"cue "]), st.binary(max_size=9)), max_size=3
        ),
        fmt_extra=st.sampled_from([b"", b"\x00\x00"]),  # an 18-byte fmt chunk ends in a zero cbSize
    )
    @example(ints=np.array([-32768, -1, 0, 1, 32767], dtype="<i2"), chunks=[], fmt_extra=b"").via("extremes and zero")
    def test_reader_returns_the_samples_wave_reads(self, ints, chunks, fmt_extra):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.wav"
            wav = wave_bytes(ints)  # its fmt chunk's payload is bytes 20-36, its samples follow byte 44
            path.write_bytes(riff([(b"fmt ", wav[20:36] + fmt_extra), *chunks, (b"data", wav[44:])]))
            with wave.open(str(path), "rb") as w:
                expected = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2") / 32768.0
            assert same_bits(read_wav(path).samples, expected)

    @settings(max_examples=100, deadline=None)
    @given(ints=sample_values())
    @example(ints=np.array([0], dtype="<i2")).via("one sample")
    @example(ints=np.array([-32768, 32767], dtype="<i2")).via("two samples, both extremes")
    def test_writer_bytes_equal_what_wave_writes(self, ints):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.wav"
            write_wav(path, AudioClip(ints / 32768.0))
            assert path.read_bytes() == wave_bytes(ints)


class TestApplyGain:
    def test_zero_db_is_identity(self):
        clip = make_tone(500)
        out = apply_gain(clip, 0.0)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_six_db_doubles(self):
        clip = make_tone(500, amplitude=0.4)
        out = apply_gain(clip, 20 * np.log10(2))
        np.testing.assert_allclose(out.samples, 2.0 * clip.samples, rtol=0, atol=1e-9)

    def test_hard_clip_at_unity(self):
        clip = AudioClip(np.array([0.8, -0.8, 0.1]))
        out = apply_gain(clip, 6.0206)
        # 0.8 doubles to 1.6 and clamps at the write bound
        np.testing.assert_allclose(out.samples, [1.0, -1.0, 0.2], atol=1e-9)

    def test_non_finite_gain_rejected(self):
        with pytest.raises(ValueError):
            apply_gain(make_tone(500), float("nan"))

    @pytest.mark.parametrize("gain_db", [7000.0, 1e300])
    def test_gain_whose_factor_overflows_rejected(self, gain_db):
        message = rf"^gain must give a finite factor 10\^\(gain/20\), got {re.escape(str(gain_db))}$"
        with pytest.raises(ValueError, match=message):
            apply_gain(AudioClip([0.1, 0.0]), gain_db)


class TestGaussianNoise:
    def test_zero_sigma_is_identity(self):
        clip = make_tone(700)
        out = add_gaussian_noise(clip, 0.0, seed=1)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_seed_determinism(self):
        clip = make_tone(700)
        a = add_gaussian_noise(clip, 0.01, seed=42)
        b = add_gaussian_noise(clip, 0.01, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = add_gaussian_noise(clip, 0.01, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_sample_std_matches_sigma(self):
        silent = AudioClip(np.zeros(16000))
        out = add_gaussian_noise(silent, 0.01, seed=7)
        assert out.samples.std() == pytest.approx(0.01, rel=0.05)

    def test_energy_bound(self):
        clip = make_tone(500, amplitude=0.5)
        sigma = 0.01
        out = add_gaussian_noise(clip, sigma, seed=3)
        rms_in2 = float(np.mean(clip.samples**2))
        rms_out2 = float(np.mean(out.samples**2))
        assert rms_out2 <= (rms_in2 + sigma**2) * 1.1

    @pytest.mark.parametrize("sigma", [-0.01, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match=rf"^sigma must be finite and non-negative, got {sigma}$"):
            add_gaussian_noise(make_tone(500), sigma, seed=0)


class TestTimeStretch:
    def test_identity_rate(self):
        clip = make_tone(500)
        out = time_stretch(clip, 1.0)
        assert len(out) == len(clip)
        np.testing.assert_allclose(out.samples, clip.samples, atol=1e-9)
        assert dominant_frequency(out) == pytest.approx(500, rel=0.02)

    def test_double_rate_halves_duration(self):
        clip = make_tone(500, seconds=1.0)
        out = time_stretch(clip, 2.0)
        assert abs(len(out) - 8000) <= FRAME
        assert dominant_frequency(out) == pytest.approx(500, rel=0.02)

    def test_slowdown(self):
        clip = make_tone(700, seconds=1.0)
        out = time_stretch(clip, 0.8)
        assert abs(len(out) - 20000) <= FRAME
        assert dominant_frequency(out) == pytest.approx(700, rel=0.02)

    @pytest.mark.parametrize("rate", [0.5, 0.75, 1.25, 2.0])
    def test_round_trip_duration(self, rate):
        clip = make_tone(900, seconds=0.7)
        out = time_stretch(time_stretch(clip, rate), 1.0 / rate)
        assert abs(len(out) - len(clip)) <= 2 * FRAME

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError):
            time_stretch(make_tone(500), 0.4)
        with pytest.raises(ValueError):
            time_stretch(make_tone(500), 2.5)

    def test_deterministic(self):
        clip = make_tone(1100)
        assert np.array_equal(time_stretch(clip, 1.3).samples, time_stretch(clip, 1.3).samples)


def oracle_time_stretch(clip, rate):
    """time_stretch with its search replaced by the per-candidate oracle, which ignores the precomputed norms."""

    def search(x, norms, nominal, ideal, cmp_len, tol):
        return oracle_best_analysis_position(x, nominal, ideal, cmp_len, tol)

    with mock.patch.object(audio, "_best_analysis_position", search):
        return time_stretch(clip, rate)


@st.composite
def tones_with_silence(draw):
    """A loud tone, then a near-silent one, each followed by a run of digital silence.

    The quiet tone after the loud one is where norms from running sums of
    squares go wrong: cancellation leaves an error of about eps times the loud
    energy, which is large against the quiet windows' own energy.
    """
    parts = []
    for lo_exp, hi_exp in ((-1.0, 0.0), (-7.0, -3.0)):
        n = draw(st.integers(1, 4000))
        amplitude = 10.0 ** draw(st.floats(lo_exp, hi_exp))
        freq = draw(st.floats(100.0, 2000.0))
        phase = draw(st.floats(0.0, 2 * math.pi))
        parts.append(amplitude * np.sin(2 * np.pi * freq * np.arange(n) / 16000 + phase))
        parts.append(np.zeros(draw(st.integers(0, 1000))))
    x = np.concatenate(parts)
    if draw(st.booleans()):
        x = np.rint(x * 32767) / 32768  # quantized to 16 bits
    return AudioClip(x)


class TestStretchSearchOracle:
    @settings(max_examples=100, deadline=None)
    @given(clip=tones_with_silence(), rate=st.floats(0.5, 2.0))
    def test_bit_identical_to_per_candidate_search(self, clip, rate):
        assert np.array_equal(time_stretch(clip, rate).samples, oracle_time_stretch(clip, rate).samples)

    @pytest.mark.parametrize("n", [1, 399, 400, 401])
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_clips_around_one_frame(self, n, rate):
        clip = make_tone(700, seconds=n / 16000)
        out = time_stretch(clip, rate)
        assert len(out) == max(1, round(n / rate))
        assert np.array_equal(out.samples, oracle_time_stretch(clip, rate).samples)

    # digital silence scores every candidate 0; a tone whose period is a whole number of
    # samples (32, 16 and 8) scores a candidate one period away within the tie tolerance
    @pytest.mark.parametrize("freq", [None, 500, 1000, 2000])
    @pytest.mark.parametrize("rate", [0.5, 0.9, 1.1, 2.0])
    def test_tied_candidates_resolve_toward_nominal(self, freq, rate):
        clip = AudioClip(np.zeros(8000)) if freq is None else make_tone(freq, seconds=0.5)
        assert same_bits(time_stretch(clip, rate).samples, oracle_time_stretch(clip, rate).samples)


@st.composite
def overlap_add_inputs(draw):
    """A clip (perhaps shorter than one frame, perhaps holding -0.0), frame positions in it and an output length.

    Analysis starts run anywhere in the clip, so frames near its end are
    zero-padded; synthesis starts are in any order and may coincide.
    """
    n = draw(st.integers(1, 2 * FRAME))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 0.0, n)
    x[rng.random(n) < draw(st.floats(0.0, 1.0))] = -0.0
    n_frames = draw(st.integers(1, 8))
    analysis = draw(st.lists(st.integers(0, n - 1), min_size=n_frames, max_size=n_frames))
    synthesis = draw(st.lists(st.integers(0, 3 * FRAME), min_size=n_frames, max_size=n_frames))
    n_out = draw(st.integers(1, max(synthesis) + FRAME + 10))
    return x, np.array(analysis), np.array(synthesis), n_out


class TestOverlapAdd:
    @settings(max_examples=200, deadline=None)
    @given(data=overlap_add_inputs())
    def test_bit_identical_to_per_frame_adds(self, data):
        x, analysis, synthesis, n_out = data
        want = oracle_overlap_add(x, analysis, synthesis, n_out, audio._hann(FRAME))
        assert same_bits(audio._overlap_add(x, analysis, synthesis, n_out), want)

    def test_window_is_read_only(self):
        assert not audio._WINDOW.flags.writeable


# every row length below NumPy's 8-way unrolling and around it, leaves of 96 and
# 104 (the halves of 200), the largest leaf, the first split, and longer rows
WINDOW_SUM_FRAMES = [*range(1, 10), 96, 104, 128, 129, 256, 400, 700]


@st.composite
def window_sum_inputs(draw):
    """A frame and an input at least that long: a tone with silence or random values of magnitude 1e-8 to 1.

    Either may be squared, as ``time_stretch`` squares it, and either may be
    cut or repeated to exactly one frame.
    """
    frame = draw(st.sampled_from(WINDOW_SUM_FRAMES))
    if draw(st.booleans()):
        y = draw(tones_with_silence()).samples
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(1, 4000))
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 0.0, n)
    if draw(st.booleans()):
        y = y * y
    if len(y) < frame or draw(st.booleans()):
        y = np.resize(y, frame)
    return y, frame


class TestWindowSums:
    @settings(max_examples=300, deadline=None)
    @given(data=window_sum_inputs())
    def test_bit_identical_to_row_sums(self, data):
        y, frame = data
        assert same_bits(audio._window_sums(y, frame), oracle_window_sums(y, frame))

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep each call's partial sums alive until the next garbage collection
        gc.collect()
        gc.disable()
        try:
            audio._window_sums(np.ones(1000), 400)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("frame", WINDOW_SUM_FRAMES)
    def test_negative_zeros_sum_to_positive_zero(self, frame):
        y = np.full(frame + 20, -0.0)
        assert same_bits(audio._window_sums(y, frame), oracle_window_sums(y, frame))
        assert same_bits(audio._window_sums(y, frame), np.zeros(21))


class TestPitchShift:
    def test_zero_semitones_identity(self):
        clip = make_tone(500)
        out = pitch_shift(clip, 0)
        assert len(out) == len(clip)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_octave_up(self):
        clip = make_tone(500, seconds=1.0)
        out = pitch_shift(clip, 12)
        assert abs(len(out) - len(clip)) <= 0.01 * len(clip)
        assert dominant_frequency(out) == pytest.approx(1000, rel=0.02)

    def test_octave_down(self):
        clip = make_tone(900, seconds=1.0)
        out = pitch_shift(clip, -12)
        assert abs(len(out) - len(clip)) <= 0.01 * len(clip)
        assert dominant_frequency(out) == pytest.approx(450, rel=0.02)

    @pytest.mark.parametrize("semitones", [-2, 1, 2])
    def test_small_shifts(self, semitones):
        clip = make_tone(700, seconds=1.0)
        out = pitch_shift(clip, semitones)
        expected = 700 * 2 ** (semitones / 12)
        assert dominant_frequency(out) == pytest.approx(expected, rel=0.02)
        assert abs(len(out) - len(clip)) <= 0.01 * len(clip)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pitch_shift(make_tone(500), 13)


class TestAugmentClip:
    def test_collapsed_spec_is_identity(self):
        # the stretch, gain and noise ranges are module constants, collapsed here for the check
        collapsed = dict(STRETCH_RANGE=(1.0, 1.0), GAIN_RANGE_DB=(0.0, 0.0), NOISE_SIGMA_RANGE=(0.0, 0.0))
        clip = make_tone(500)
        with mock.patch.multiple(audio, **collapsed):
            out = augment_clip(clip, AugmentSpec(pitch_range_semitones=(0, 0)), sample_seed=11)
        assert len(out) == len(clip)
        np.testing.assert_allclose(out.samples, clip.samples, atol=1e-9)

    def test_same_seed_bit_identical(self):
        clip = make_tone(900)
        spec = AugmentSpec()
        a = augment_clip(clip, spec, sample_seed=21)
        b = augment_clip(clip, spec, sample_seed=21)
        assert np.array_equal(a.samples, b.samples)
        c = augment_clip(clip, spec, sample_seed=22)
        assert not np.array_equal(a.samples, c.samples)

    def test_duration_bounded_by_stretch_range(self):
        clip = make_tone(700)
        out = augment_clip(clip, AugmentSpec(), sample_seed=31)
        lo, hi = audio.STRETCH_RANGE
        assert len(clip) / hi - FRAME <= len(out) <= len(clip) / lo + FRAME


@st.composite
def full_scale_clips(draw):
    """A 16-bit-quantized clip with runs at full scale: exactly 1.0 or -1.0, here and there 2^-15 short of it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    x = rng.integers(-32768, 32768, n) / 32768
    for _ in range(draw(st.integers(1, 4))):
        run = x[rng.integers(0, n) :][: rng.integers(1, 800)]
        run[:] = rng.choice([-1.0, 1.0]) * rng.choice([1.0, 1.0 - 2**-15], len(run), p=[0.8, 0.2])
    return AudioClip(x)


class TestEveryClipObeysTheRule:
    @settings(max_examples=100, deadline=None)
    @given(
        clip=full_scale_clips(),
        rate=st.floats(0.5, 2.0),
        gain_db=st.floats(*audio.GAIN_RANGE_DB),
        sigma=st.floats(*audio.NOISE_SIGMA_RANGE),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_transforms_build_only_clips_in_range(self, clip, rate, gain_db, sigma, seed):
        # a transform that let a sample past [-1, 1] would raise when it built its output clip
        time_stretch(clip, rate)
        for semitones in range(-12, 13):
            pitch_shift(clip, semitones)
        apply_gain(clip, gain_db)
        add_gaussian_noise(clip, sigma, seed)
        augment_clip(clip, AugmentSpec(pitch_range_semitones=(-12, 12)), seed)


class TestAugmentGoldenBytes:
    """The bytes write_wav stores for augment_clip's output, pinned: 6 languages x 2 seeds per spec."""

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (AugmentSpec(), "58933782eb12796ee9591e91c0bd15523fc7a58ceb5993ed9cc2f66225a5c9ec"),
            (AugmentSpec(pitch_range_semitones=(1, 2)), "0e3f59929a9eead5d78d8234d64e541d6f56f1ae21cf0f687f016280389b4da7"),
        ],
        ids=["default", "pitch-1-2"],
    )
    def test_wav_bytes_pinned(self, tmp_path, spec, expected):
        h = hashlib.sha256()
        for lang in make_languages(6, seed=1):
            clip = synthesize_utterance(lang, "ABCDEFG")
            for seed in (1, 2):
                path = tmp_path / f"{lang.name}-{seed}.wav"
                write_wav(path, augment_clip(clip, spec, sample_seed=seed))
                h.update(path.read_bytes())
        assert h.hexdigest() == expected


class TestAugmentSpec:
    @pytest.mark.parametrize(
        "field_name, bounds",
        [
            ("stretch_range", (0.3, 3.0)),
            ("stretch_range", (0.4, 1.0)),
            ("stretch_range", (1.0, 2.5)),
            ("stretch_range", (math.nan, 1.0)),
            ("pitch_range_semitones", (-13, 13)),
            ("pitch_range_semitones", (0, 13)),
            ("pitch_range_semitones", (0.5, 1.5)),
            ("pitch_range_semitones", (-2.0, 2.0)),
            ("gain_range_db", (-6.0, math.inf)),
            ("gain_range_db", (math.nan, 6.0)),
            ("gain_range_db", (6.0, -6.0)),
            ("noise_sigma_range", (0.0, math.nan)),
            ("noise_sigma_range", (-0.1, 0.1)),
            ("pitch_range_semitones", (2, -2)),
            # not a pair of ints: refused before it is unpacked, and a bound must be an
            # int as util.require_ints has it, not a bool or a numpy integer
            ("pitch_range_semitones", 3),
            ("pitch_range_semitones", (1, 2, 3)),
            ("pitch_range_semitones", (1,)),
            ("pitch_range_semitones", [1, 2]),
            ("pitch_range_semitones", None),
            ("pitch_range_semitones", (np.int64(1), 2)),
            ("pitch_range_semitones", (1, np.int64(2))),
            ("pitch_range_semitones", (True, 2)),
        ],
    )
    def test_bad_bounds_rejected_naming_the_field(self, field_name, bounds):
        # only the pitch range is settable; the stretch, gain and noise ranges are
        # module constants, so a spec refuses them by name whatever their bounds
        error = ValueError if field_name == "pitch_range_semitones" else TypeError
        with pytest.raises(error, match=field_name):
            AugmentSpec(**{field_name: bounds})

    def test_widest_bounds_accepted(self):
        spec = AugmentSpec(pitch_range_semitones=(-12, 12))
        out = augment_clip(make_tone(500, seconds=0.1), spec, sample_seed=3)
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("seed", ["x", True, 1.5, None])
    def test_non_int_seed_rejected_before_writing(self, tmp_path, seed):
        manifest = build_tiny_corpus(tmp_path / "corpus", TestAugmentDataset.LAYOUT[:1])
        with pytest.raises(ValueError, match=f"^seed must be an int, got {re.escape(repr(seed))}$"):
            augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=seed))
        assert not (tmp_path / "aug").exists()


def build_tiny_corpus(root, layout):
    """layout: list of (id, lang, split, freq); writes tones and a manifest."""
    entries = []
    for utt_id, lang, split, freq in layout:
        rel = f"{split}/{lang}/{utt_id}.wav"
        write_wav(root / rel, make_tone(freq, seconds=0.3))
        entries.append(ManifestEntry(id=utt_id, lang=lang, text="AB", wav=rel, split=split))
    return write_manifest(root / "manifest.jsonl", entries)


class TestAugmentDataset:
    LAYOUT = [
        ("ft-L0-0", "L0", "finetune", 500),
        ("ft-L0-1", "L0", "finetune", 700),
        ("ft-L1-0", "L1", "finetune", 900),
        ("test-L0-0", "L0", "test", 1100),
    ]

    def test_doubles_selected_entries(self, tmp_path):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        result = augment_dataset(
            manifest, tmp_path / "aug", AugmentSpec(seed=5), languages={"L0"}, splits={"finetune"}
        )
        assert result.n_augmented == 2
        assert not result.failures
        out_manifest = tmp_path / "aug" / "manifest.jsonl"
        entries = read_manifest(out_manifest)
        assert [e.id for e in entries] == ["ft-L0-0-aug1", "ft-L0-1-aug1"]
        assert all(e.augmented and e.split == "finetune" and e.lang == "L0" for e in entries)
        for e in entries:
            assert resolve_wav(out_manifest, e).exists()

    def test_rerun_is_byte_identical_and_order_independent(self, tmp_path):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        augment_dataset(manifest, tmp_path / "a", AugmentSpec(seed=9), languages={"L0"})
        # rewrite the manifest with lines reversed, then rerun with the same seed
        shuffled = read_manifest(manifest)[::-1]
        manifest2 = write_manifest(tmp_path / "corpus" / "manifest.jsonl", shuffled)
        augment_dataset(manifest2, tmp_path / "b", AugmentSpec(seed=9), languages={"L0"})
        for e in read_manifest(tmp_path / "a" / "manifest.jsonl"):
            a = resolve_wav(tmp_path / "a" / "manifest.jsonl", e).read_bytes()
            b = (tmp_path / "b" / e.wav).read_bytes()
            assert a == b

    def test_unreadable_entry_is_recorded_and_skipped(self, tmp_path):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        entries = read_manifest(manifest)
        entries.append(ManifestEntry(id="ghost", lang="L0", text="A", wav="finetune/L0/ghost.wav", split="finetune"))
        write_manifest(manifest, entries)
        result = augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=1), languages={"L0"})
        assert [f[0] for f in result.failures] == ["ghost"]
        assert result.n_augmented == 3

    def test_other_rate_input_is_recorded_and_skipped(self, tmp_path):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        write_wav_at_rate(tmp_path / "corpus" / "finetune" / "L0" / "slow.wav", 8000, make_tone(500).samples)
        slow = ManifestEntry(id="slow", lang="L0", text="AB", wav="finetune/L0/slow.wav", split="finetune")
        write_manifest(manifest, read_manifest(manifest) + [slow])
        result = augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=1), languages={"L0"})
        assert len(result.failures) == 1
        assert result.failures[0][0] == "slow"
        assert result.failures[0][1].endswith("slow.wav: sampled at 8000 Hz, need 16000 Hz")
        assert result.n_augmented == 3
        assert not (tmp_path / "aug" / "finetune" / "L0" / "slow-aug1.wav").exists()
        assert "slow-aug1" not in {e.id for e in read_manifest(tmp_path / "aug" / "manifest.jsonl")}

    def test_truncated_input_is_recorded_and_skipped(self, tmp_path):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        cut = tmp_path / "corpus" / "finetune" / "L0" / "cut.wav"
        write_wav(cut, make_tone(500, seconds=0.3))
        cut.write_bytes(cut.read_bytes()[:-501])
        entry = ManifestEntry(id="cut", lang="L0", text="AB", wav="finetune/L0/cut.wav", split="finetune")
        write_manifest(manifest, read_manifest(manifest) + [entry])
        result = augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=1), languages={"L0"})
        assert [(utt_id, message.startswith(f"{cut}: data chunk holds")) for utt_id, message in result.failures] == [
            ("cut", True)
        ]
        assert result.n_augmented == 3
        assert "cut-aug1" not in {e.id for e in read_manifest(tmp_path / "aug" / "manifest.jsonl")}

    @pytest.mark.parametrize(
        "lang, counts",
        [
            pytest.param("ZZ", "selected: 0, refused: 0", id="nothing-selected"),
            pytest.param("L9", "selected: 1, refused: 1", id="every-input-refused"),
        ],
    )
    def test_no_copy_made_rejected_before_writing(self, tmp_path, lang, counts):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        ghost = ManifestEntry(id="ghost", lang="L9", text="A", wav="finetune/L9/ghost.wav", split="finetune")
        write_manifest(manifest, read_manifest(manifest) + [ghost])
        message = f"{manifest}: no copy made ({counts})"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=1), languages={lang})
        assert not (tmp_path / "aug").exists()

    def test_multiplier(self, tmp_path):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT[:1])
        result = augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=2), multiplier=3)
        assert result.n_augmented == 3
        assert [e.id for e in read_manifest(tmp_path / "aug" / "manifest.jsonl")] == [
            "ft-L0-0-aug1",
            "ft-L0-0-aug2",
            "ft-L0-0-aug3",
        ]

    @pytest.mark.parametrize("multiplier", [0, -1])
    def test_non_positive_multiplier_rejected_before_writing(self, tmp_path, multiplier):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT[:1])
        with pytest.raises(ValueError, match="multiplier"):
            augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=2), multiplier=multiplier)
        assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("multiplier", [np.int64(2), True, 2.0])
    def test_non_int_multiplier_rejected_before_writing(self, tmp_path, multiplier):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT[:1])
        with pytest.raises(ValueError, match=rf"^multiplier must be a positive int, got {re.escape(repr(multiplier))}$"):
            augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=2), multiplier=multiplier)
        assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_empty_input_is_recorded_and_skipped(self, tmp_path, seed):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        write_wav_at_rate(tmp_path / "corpus" / "finetune" / "L0" / "empty.wav", 16000, [])
        empty = ManifestEntry(id="empty", lang="L0", text="AB", wav="finetune/L0/empty.wav", split="finetune")
        write_manifest(manifest, read_manifest(manifest) + [empty])
        result = augment_dataset(manifest, tmp_path / "aug", AugmentSpec(seed=seed), languages={"L0"})
        assert [(utt_id, message.endswith("empty.wav: no samples")) for utt_id, message in result.failures] == [("empty", True)]
        assert result.n_augmented == 3
        assert "empty-aug1" not in {e.id for e in read_manifest(tmp_path / "aug" / "manifest.jsonl")}
        assert not (tmp_path / "aug" / "finetune" / "L0" / "empty-aug1.wav").exists()

    @pytest.mark.parametrize("out_dir", [".", "finetune/.."])
    def test_output_manifest_over_input_rejected_before_writing(self, tmp_path, out_dir):
        manifest = build_tiny_corpus(tmp_path / "corpus", self.LAYOUT)
        before = {p: p.read_bytes() for p in manifest.parent.rglob("*") if p.is_file()}
        out = tmp_path / "corpus" / out_dir
        message = f"output manifest {out / 'manifest.jsonl'} would overwrite the input manifest {manifest}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            augment_dataset(manifest, out, AugmentSpec(seed=1), splits={"finetune"})
        assert {p: p.read_bytes() for p in manifest.parent.rglob("*") if p.is_file()} == before

    def test_missing_manifest_rejected_before_writing(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"nope/manifest\.jsonl: cannot read manifest"):
            augment_dataset(tmp_path / "nope" / "manifest.jsonl", tmp_path / "outdir", AugmentSpec())
        assert not (tmp_path / "outdir").exists()

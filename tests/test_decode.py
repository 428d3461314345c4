import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairsums import decode
from pairsums.core import Direction, NonFiniteInput, normalize
from pairsums.decode import (
    Checksum,
    DecodeResult,
    bytes_to_bits,
    crc8,
    crc8_syndromes,
    decode_best,
    make_validator,
)
from pairsums.oracle import brute_force_top_k

CONF3 = [(0.1, 0.9), (0.8, 0.2), (0.6, 0.4)]


class TestCrc8:
    def test_check_value(self):
        # published check value for poly 0x07, init 0x00, non-reflected
        assert crc8(bytes_to_bits(b"123456789")) == 0xF4

    def test_empty_message(self):
        assert crc8([]) == 0x00

    def test_single_zero_byte(self):
        assert crc8([0] * 8) == 0x00

    def test_leading_one(self):
        # message x^7 appends 8 zero bits: x^15 mod (x^8+x^2+x+1) = x^7+x^3+1
        assert crc8(bytes_to_bits(b"\x80")) == 0x89

    @given(st.binary(min_size=1, max_size=16))
    def test_appending_crc_yields_zero_residue(self, data):
        bits = bytes_to_bits(data)
        check = crc8(bits)
        tail = [(check >> (7 - j)) & 1 for j in range(8)]
        assert crc8(bits + tail) == 0


class TestValidators:
    def test_none_accepts_everything(self):
        ok = make_validator(Checksum.NONE, 3)
        assert ok([0, 0, 0]) and ok([1, 1, 1])

    def test_parity_even(self):
        ok = make_validator(Checksum.PARITY_EVEN, 4)
        assert ok([0, 0, 0, 0])
        assert ok([1, 0, 1, 0])
        assert not ok([1, 0, 0, 0])

    def test_crc8_validator(self):
        bits = bytes_to_bits(b"\xa5")
        check = crc8(bits)
        tail = [(check >> (7 - j)) & 1 for j in range(8)]
        ok = make_validator(Checksum.CRC8, 16)
        assert ok(bits + tail)
        flipped = bits[:]
        flipped[0] ^= 1
        assert not ok(flipped + tail)

    def test_crc8_needs_payload(self):
        with pytest.raises(ValueError):
            make_validator(Checksum.CRC8, 8)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            make_validator(Checksum.NONE, 0)


class TestDecodeBest:
    def test_integer_beyond_float_range_is_non_finite(self):
        with pytest.raises(NonFiniteInput):
            decode_best([(0.1, 0.9), (10**400, 1)], Checksum.PARITY_EVEN)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_confidence_sums_are_non_finite(self):
        conf = [(0.1, 0.9), (1e308, 1.5e308), (1e308, 1.2e308)]
        for kind in Checksum:
            with pytest.raises(NonFiniteInput, match="overflow the float range"):
                decode_best(conf, kind)

    def test_budget_beyond_sys_maxsize(self):
        want = decode_best(CONF3, Checksum.PARITY_EVEN)
        assert decode_best(CONF3, Checksum.PARITY_EVEN, 10**20) == want
        miss = decode_best(CONF3, lambda bits: False, 10**20)
        assert (miss.found, miss.candidates_tested) == (False, 8)

    def test_none_returns_argmax(self):
        result = decode_best(CONF3, Checksum.NONE)
        assert result.found
        assert result.bits == "100"
        assert result.rank == 1
        assert result.confidence == pytest.approx(2.3)
        assert result.candidates_tested == 1

    def test_parity_skips_argmax(self):
        result = decode_best(CONF3, Checksum.PARITY_EVEN)
        assert result.found
        assert result.bits == "101"
        assert result.rank == 2
        assert result.confidence == pytest.approx(2.1)
        assert result.candidates_tested == 2

    def test_ties_break_toward_zero(self):
        result = decode_best([(0.5, 0.5), (0.3, 0.7)], Checksum.NONE)
        assert result.bits == "01"

    def test_exhausting_budget_reports_failure(self):
        result = decode_best(CONF3, Checksum.PARITY_EVEN, max_candidates=1)
        assert result == DecodeResult(
            found=False, bits=None, rank=None, confidence=None, candidates_tested=1
        )

    def test_rank_counts_failed_predecessors(self):
        # full MAX order over CONF3: 100, 101, 110, 111, 000, 001, 010, 011
        oracle = brute_force_top_k(CONF3, 8, Direction.MAX)
        target = decode_best(CONF3, Checksum.PARITY_EVEN)
        before = [r.selection_str() for r in oracle[: target.rank - 1]]
        assert all(s.count("1") % 2 == 1 for s in before)
        assert oracle[target.rank - 1].selection_str() == target.bits

    def test_impossible_validator_exhausts_enumeration(self):
        def never(_bits):
            return False

        result = decode_best([(0.9, 0.1)], never)
        assert not result.found
        assert result.candidates_tested == 2

    def test_callable_validator_accepted(self):
        result = decode_best(CONF3, lambda bits: bits[2] == 1)
        assert result.bits == "101"

    def test_crc8_roundtrip_recovers_corrupted_message(self):
        rng = np.random.default_rng(5)
        message = rng.integers(0, 2, size=16).tolist()
        check = crc8(message)
        word = message + [(check >> (7 - j)) & 1 for j in range(8)]
        confidences = [(0.9, 0.1) if b == 0 else (0.1, 0.9) for b in word]
        # bit 3 received wrong with low confidence
        good = word[3]
        confidences[3] = (0.55, 0.45) if good == 1 else (0.45, 0.55)
        result = decode_best(confidences, Checksum.CRC8)
        assert result.found
        assert result.bits == "".join(str(b) for b in word)
        assert result.rank == 2  # argmax fails the CRC, one flip fixes it


unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
coarse_floats = unit_floats.map(lambda x: round(x, 1))  # many exact ties


@st.composite
def decode_cases(draw, kind):
    n = draw(st.integers(min_value=9 if kind is Checksum.CRC8 else 1, max_value=16))
    shape = draw(st.sampled_from(["fine", "coarse", "equal"]))
    if shape == "equal":
        value = draw(coarse_floats)
        conf = [(value, value)] * n
    else:
        values = unit_floats if shape == "fine" else coarse_floats
        conf = draw(st.lists(st.tuples(values, values), min_size=n, max_size=n))
    # small budgets run out before a hit; 2^N + 1 covers the whole order
    budget = draw(st.integers(min_value=1, max_value=min(2**n + 1, 600)))
    return conf, budget


class TestHatDomainChecks:
    @pytest.mark.parametrize("kind", list(Checksum))
    @given(data=st.data())
    def test_matches_callable_validator(self, kind, data):
        conf, budget = data.draw(decode_cases(kind))
        reference = decode_best(conf, make_validator(kind, len(conf)), budget)
        assert decode_best(conf, kind, budget) == reference

    def test_crc8_at_nine_bits_matches_callable(self):
        # one message bit: 2 of the 512 candidates are CRC-valid, so the
        # budgets below both run out early and reach the end of the order
        rng = np.random.default_rng(9)
        for _ in range(50):
            conf = rng.random((9, 2)).round(1)
            for budget in (1, 2, 100, 511, 512, 513):
                want = decode_best(conf, make_validator(Checksum.CRC8, 9), budget)
                assert decode_best(conf, Checksum.CRC8, budget) == want

    @pytest.mark.parametrize("n", range(9, 41))
    def test_syndrome_table_is_crc_of_single_bit_words(self, n):
        table = crc8_syndromes(n)
        for j in range(n):
            word = [0] * n
            word[j] = 1
            stored = int("".join(map(str, word[-8:])), 2)
            assert table[j] == crc8(word[:-8]) ^ stored

    def test_crc8_denormalizes_only_the_accepted_candidate(self, monkeypatch):
        calls = []
        original = decode.denormalize

        def counting(instance, combo):
            calls.append(combo.mask)
            return original(instance, combo)

        monkeypatch.setattr(decode, "denormalize", counting)
        rng = np.random.default_rng(3)
        message = rng.integers(0, 2, size=40).tolist()
        check = crc8(message)
        word = message + [(check >> (7 - j)) & 1 for j in range(8)]
        conf = [(0.9, 0.1) if b == 0 else (0.1, 0.9) for b in word]
        conf[5] = (0.45, 0.55) if word[5] == 0 else (0.55, 0.45)
        conf[17] = (0.48, 0.52) if word[17] == 0 else (0.52, 0.48)
        hit = decode_best(conf, Checksum.CRC8)
        assert hit.found and hit.rank > 1
        assert hit.bits == "".join(map(str, word))
        assert len(calls) == 1

        calls.clear()
        miss = decode_best(conf, Checksum.CRC8, max_candidates=hit.rank - 1)
        assert not miss.found
        assert calls == []

    def test_crc8_needs_payload(self):
        with pytest.raises(ValueError):
            decode_best([(0.2, 0.8)] * 8, Checksum.CRC8)

    def test_kind_without_syndrome_table_raises(self):
        instance = normalize(CONF3, Direction.MAX)
        with pytest.raises(ValueError, match="unknown checksum kind"):
            decode._hat_acceptor("crc8", instance)

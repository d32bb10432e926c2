"""Numeric and stochastic primitives shared by every other module.

Provides a splittable counter-based random source (`Rng`), stable
hashing for seeds and stream ids, and Dirichlet sampling built on it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidArgument, NumericError

_MASK64 = (1 << 64) - 1
_DOUBLE_SCALE = 2.0 ** -53

# Fractional bits of pi; fixed domain-separation constant for hash64.
_HASH_SEED = 0x243F6A8885A308D3


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fnv1a64(s: str) -> int:
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def hash64(*fields: int | str) -> int:
    """Mix integers and strings into a stable 64-bit value.

    Pure integer arithmetic, so results match across platforms and
    processes. Used to derive RNG sub-stream ids and per-run seeds.
    """
    h = _HASH_SEED
    for f in fields:
        v = _fnv1a64(f) if isinstance(f, str) else int(f) & _MASK64
        h = _splitmix64(h ^ v)
    return h


@functools.cache
def _philox() -> np.random.Philox:
    """The one Philox every Rng re-keys: building one costs several times
    as much as re-keying it, and each round builds a substream per client.
    Built on first use, so `import fedsim` does not load numpy.random."""
    return np.random.Philox(0)


class Rng:
    """Deterministic splittable random source.

    A counter-based Philox stream keyed by (seed, stream). All
    distributions are derived from the raw 64-bit output with fixed
    algorithms, so a given (seed, stream) replays the same sequence on
    any platform. Distinct sub-streams are independent, and any number
    of instances can be interleaved: an instance holds only its key,
    the count of Philox blocks it has drawn and its buffered words, and
    each refill re-keys one shared generator to that point. fedsim runs
    in one thread, and each process has its own generator; instances
    must not refill from several threads at once.

    Two draws shuffle: `permutation`, a rejection-sampled Fisher-Yates
    swap by swap, which the partitions use, and `shuffles`, one sort of
    raw words per call, which gives a training client all its epochs.
    """

    _BLOCK = 1024

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._blocks = 0  # 4-word Philox blocks drawn so far
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0

    def substream(self, *fields: int | str) -> "Rng":
        """Derive an independent stream from (this stream, fields)."""
        return Rng(self.seed, hash64(self.stream, *fields))

    def _raw(self, n: int) -> np.ndarray:
        """Next n words of the raw 64-bit stream."""
        avail = len(self._buf) - self._pos
        if n <= avail:
            out = self._buf[self._pos : self._pos + n]
            self._pos += n
            return out
        parts = [self._buf[self._pos :]]
        need = n - avail
        # whole blocks, so the generator holds no word back for a next call;
        # a fresh stream's first refill holds just the request, because
        # most substreams are short: one client's shuffles for one call
        words = -(-max(need, self._BLOCK if self._blocks else 0) // 4) * 4
        # Philox steps its counter before each block, so setting it to
        # the blocks drawn so far resumes the stream where it stopped
        gen = _philox()
        gen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (self._blocks, 0, 0, 0), "key": (self.seed, self.stream)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        fresh = gen.random_raw(words)
        self._blocks += words // 4
        parts.append(fresh[:need])
        self._buf = fresh
        self._pos = need
        return np.concatenate(parts) if avail else fresh[:need]

    def uniform(self, size: int | None = None):
        """Uniform doubles in [0, 1): scalar when size is None."""
        if size is None:
            return float(self._raw(1)[0] >> np.uint64(11)) * _DOUBLE_SCALE
        u = (self._raw(int(size)) >> np.uint64(11)).astype(np.float64)
        return u * _DOUBLE_SCALE

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via masked rejection."""
        if n <= 0:
            raise InvalidArgument(f"randbelow requires n >= 1, got {n}")
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            v = int(self._raw(1)[0]) & mask
            if v < n:
                return v

    def _below_descending(self, hi: int, count: int) -> list[int]:
        """randbelow(hi), randbelow(hi - 1), ... `count` times, in bulk.

        Consumes exactly the raw words the scalar calls would: words are
        pulled in chunks and the unused tail of the last chunk is handed
        back. A chunk never runs past the end of the buffer, because
        words taken across a refill partly come from the discarded old
        block and could not be handed back.
        """
        out: list[int] = []
        b = hi
        stop = hi - count
        mask = (1 << (b - 1).bit_length()) - 1
        while b > stop:
            # at least half of all words are accepted, so asking for 1.5x
            # the draws still needed usually ends the loop in one chunk
            want = b - stop
            want += (want >> 1) + 8
            avail = len(self._buf) - self._pos
            if 0 < avail < want:
                want = avail
            words = self._raw(want).tolist()
            for used, w in enumerate(words, 1):
                v = w & mask
                if v < b:
                    out.append(v)
                    b -= 1
                    if b == stop:
                        break
                    # keep mask == randbelow's mask for the new bound b
                    if b - 1 <= mask >> 1:
                        mask >>= 1
            self._pos -= len(words) - used
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n), for the partitions.

        The draws are randbelow(n), randbelow(n - 1), ..., randbelow(2),
        read from the raw words as `_below_descending` reads them, with
        each swap made as its draw is accepted.
        """
        arr = list(range(n))
        b = n
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while b > 1:
            want = b - 1
            want += (want >> 1) + 8
            avail = len(self._buf) - self._pos
            if 0 < avail < want:
                want = avail
            words = self._raw(want).tolist()
            for used, w in enumerate(words, 1):
                v = w & mask
                if v < b:
                    b -= 1
                    arr[b], arr[v] = arr[v], arr[b]
                    if b == 1:
                        break
                    if b - 1 <= mask >> 1:
                        mask >>= 1
            self._pos -= len(words) - used
        return np.array(arr, dtype=np.int64)

    def shuffles(self, n: int, count: int) -> np.ndarray:
        """`count` shuffles of range(n), as the rows of a (count, n) array.

        One read of count * n raw words, n per row: row e is the stable
        argsort of its n words. The order of 64-bit words is uniform over
        all n! orders up to ties, and a tie keeps the lower index first,
        so the result is a function of the words alone, whatever
        algorithm numpy sorts them with.
        """
        return np.argsort(self._raw(count * n).reshape(count, n), axis=1, kind="stable")

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct values from range(n), sorted ascending."""
        if not 0 <= k <= n:
            raise InvalidArgument(f"cannot sample {k} of {n}")
        arr = list(range(n))
        for i, j in enumerate(self._below_descending(n, k)):
            j += i
            arr[i], arr[j] = arr[j], arr[i]
        return np.sort(np.array(arr[:k], dtype=np.int64))

    def normal(self, size: int | None = None):
        """Standard normals via the Marsaglia polar method.

        Only uniforms, sqrt and log enter the computation, keeping the
        sequence a pure function of the raw stream.
        """
        if size is None:
            return self._normal_scalar()
        n = int(size)
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            m = max((n - filled + 1) // 2, 32)
            u = self.uniform(2 * m) * 2.0 - 1.0
            x, y = u[:m], u[m:]
            s = x * x + y * y
            ok = (s > 0.0) & (s < 1.0)
            f = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
            pair = np.empty(2 * int(ok.sum()))
            pair[0::2] = x[ok] * f
            pair[1::2] = y[ok] * f
            take = min(len(pair), n - filled)
            out[filled : filled + take] = pair[:take]
            filled += take
        return out

    def _normal_scalar(self) -> float:
        while True:
            x = self.uniform() * 2.0 - 1.0
            y = self.uniform() * 2.0 - 1.0
            s = x * x + y * y
            if 0.0 < s < 1.0:
                return x * math.sqrt(-2.0 * math.log(s) / s)

    def gamma(self, alpha: float) -> float:
        """One Gamma(alpha, 1) draw, Marsaglia-Tsang squeeze method.

        For alpha < 1 draws Gamma(alpha+1) and applies the u^(1/alpha)
        boost, so the sampler is exact for every alpha > 0.
        """
        if alpha <= 0.0:
            raise InvalidArgument(f"gamma requires alpha > 0, got {alpha}")
        if alpha < 1.0:
            g = self._gamma_ge1(alpha + 1.0)
            u = self.uniform()
            return g * u ** (1.0 / alpha)
        return self._gamma_ge1(alpha)

    def _gamma_ge1(self, alpha: float) -> float:
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self._normal_scalar()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.uniform()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v


PROB_TOL = 1e-9


def assert_prob_vector(p: np.ndarray) -> None:
    """Raise unless p is a probability vector (entries >= 0, sum 1)."""
    if np.any(p < 0.0):
        raise InvalidArgument("probability vector has negative entries")
    if abs(float(p.sum()) - 1.0) > PROB_TOL:
        raise InvalidArgument(f"probability vector sums to {p.sum()!r}, not 1")


def dirichlet_sample(rng: Rng, alpha: float, k: int) -> np.ndarray:
    """Symmetric Dirichlet(alpha, ..., alpha) draw of length k.

    k independent Gamma(alpha, 1) draws normalized by their sum.
    """
    if alpha <= 0.0:
        raise InvalidArgument(f"dirichlet requires alpha > 0, got {alpha}")
    if k < 1:
        raise InvalidArgument(f"dirichlet requires k >= 1, got {k}")
    for _ in range(100):
        g = np.array([rng.gamma(alpha) for _ in range(k)])
        total = float(g.sum())
        if total > 0.0:
            p = g / total
            assert_prob_vector(p)
            return p
    raise NumericError("dirichlet draw underflowed to zero 100 times")

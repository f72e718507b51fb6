"""Trigonometric polynomials, the package's almost periodic functions.

Uniformly almost periodic functions are represented throughout the package
as finite sums  sum_n A_n exp(i L_n x).  That makes the Bohr mean exact (the
coefficient at frequency zero) and turns sup-norm questions into grid
certificates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite trigonometric polynomial sum A_n exp(i L_n x).

    terms is a tuple of (frequency, complex coefficient) pairs with pairwise
    distinct frequencies; use trig_poly() to build one with merging.
    """

    terms: tuple

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x):
        """Evaluate at a scalar or numpy array of real arguments.

        A polynomial whose frequencies are all exactly 2 pi k runs the
        Laurent evaluator in z = e(x) (see _laurent), one cos/sin pair per
        point whatever the number of terms; any other polynomial takes one
        complex exp per term and point.  A scalar runs as a one-point batch,
        so it matches the batch value to the bit.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        if self._harmonics is not None:
            acc = self._laurent(_circle_powers(flat, self._orders), flat.size)
        else:
            acc = np.zeros(flat.shape, dtype=complex)
            for freq, coeff in self.terms:
                if freq == 0.0:
                    acc += coeff
                else:
                    acc += coeff * np.exp(1j * freq * flat)
        if x.shape == ():
            return complex(acc[0])
        return acc.reshape(x.shape)

    @cached_property
    def _harmonics(self):
        """((k, A_k), ...) when every frequency is exactly 2 pi k, else None."""
        out = tuple((round(f / TWO_PI), c) for f, c in self.terms)
        if any(f != TWO_PI * k for (f, _), (k, _) in zip(self.terms, out)):
            return None
        return out

    @cached_property
    def _orders(self):
        """The nonzero |k| over the harmonics, the powers of z that _laurent
        reads; None for a non-harmonic polynomial."""
        if self._harmonics is None:
            return None
        return frozenset(abs(k) for k, _ in self._harmonics if k)

    @cached_property
    def _real(self):
        """Harmonic and real-valued: A_{-k} = conj(A_k) for every k."""
        if self._harmonics is None:
            return False
        coeffs = dict(self._harmonics)
        return all(coeffs.get(-k, 0) == c.conjugate() for k, c in coeffs.items())

    @cached_property
    def _cos_only(self):
        """A real cosine series of order 1, a + b cos 2 pi x: it reads Re z."""
        return self._real and self._orders <= {1} and all(not c.imag for _, c in self._harmonics)

    def _laurent(self, powers, size, real=False):
        """sum_k A_k z^k over size points z on the unit circle.

        powers[k] holds z^k for every k in _orders (_circle_powers); a
        negative k reads conj(z^|k|), which is z^k since |z| = 1.  Entries of
        a matrix that read the same argument share one powers dict.  real (a
        _real polynomial) sums in float64, in the same order, the real part
        Re A_k Re z^k - Im A_k Im z^k of each complex term; Im z^k is read
        only where Im A_k != 0, so _cos_only ones need only Re z.
        """
        acc = None
        const = 0.0 if real else 0j
        for k, coeff in self._harmonics:
            if k == 0:
                const = coeff.real if real else coeff
                continue
            if real:
                z = powers[abs(k)]
                term = coeff.real * z.real
                if coeff.imag:  # Im conj(z^|k|) = -Im z^|k|
                    term -= (coeff.imag if k > 0 else -coeff.imag) * z.imag
            else:
                term = coeff * (powers[k] if k > 0 else np.conj(powers[-k]))
            if acc is None:
                acc = term
            else:
                acc += term
        if acc is None:
            return np.full(size, const)
        if const:
            acc += const
        return acc

    @property
    def is_one_periodic(self):
        """All frequencies are exactly integer multiples of 2*pi: the
        polynomials the Laurent evaluator takes (_harmonics)."""
        return self._harmonics is not None

    @property
    def is_zero(self):
        """Every coefficient is 0: distinct frequencies are independent."""
        return all(c == 0 for _, c in self.terms)

    @property
    def max_frequency(self):
        return max((abs(f) for f, _ in self.terms), default=0.0)

    def sup_bound(self):
        """sum |A_n|, an upper bound for the sup norm."""
        return sum(abs(c) for _, c in self.terms)

    def __add__(self, other):
        if isinstance(other, TrigPolynomial):
            return trig_poly(list(self.terms) + list(other.terms))
        return trig_poly(list(self.terms) + [(0.0, complex(other))])

    __radd__ = __add__

    def __mul__(self, scalar):
        return trig_poly([(f, a * scalar) for f, a in self.terms])

    __rmul__ = __mul__


def _circle_powers(x, orders, cos_only=False):
    """{k: z^k} for the k in orders (positive integers) and z = e(x) =
    exp(2 pi i x), x a 1-D float array.

    x is reduced modulo 1 first, which is exact for floats, so z keeps full
    accuracy at large arguments; z comes from one cos/sin pair per point
    (measured a little faster than a complex exp).  z^k is z^(k-1) z up to
    the largest order, so each power has the same value whichever others
    are asked for, and only the asked-for ones stay in memory.  cos_only
    (every reader is _cos_only) returns {1: Re z}, one cos per point.
    """
    if not orders:
        return {}
    w = x - np.floor(x)
    w *= TWO_PI
    if cos_only:
        return {1: np.cos(w, out=w)}
    z = np.empty(w.shape, dtype=complex)
    np.cos(w, out=z.real)
    np.sin(w, out=z.imag)
    power = z
    powers = {1: z} if 1 in orders else {}
    for k in range(2, max(orders) + 1):
        power = power * z
        if k in orders:
            powers[k] = power
    return powers


def trig_poly(terms):
    """Build a TrigPolynomial, merging duplicate frequencies."""
    merged = {}
    for freq, coeff in terms:
        freq = float(freq)
        merged[freq] = merged.get(freq, 0j) + complex(coeff)
    cleaned = tuple(sorted((f, c) for f, c in merged.items() if c != 0))
    if not cleaned:
        cleaned = ((0.0, 0j),)
    return TrigPolynomial(cleaned)


def constant(c):
    return trig_poly([(0.0, complex(c))])


def cosine(freq, amplitude=1.0, phase=0.0):
    """amplitude * cos(freq*x + phase) as a conjugate-symmetric pair."""
    half = amplitude / 2.0
    return trig_poly(
        [(freq, half * cmath.exp(1j * phase)), (-freq, half * cmath.exp(-1j * phase))]
    )


def sine(freq, amplitude=1.0):
    half = amplitude / 2.0
    return trig_poly([(freq, -1j * half), (-freq, 1j * half)])


def harmonic(k, coefficient=1.0):
    """coefficient * exp(2*pi*i*k*x): the 1-periodic building block."""
    return trig_poly([(TWO_PI * k, complex(coefficient))])


"""Exact divisor enumerations over squarefree divisors, the oracles of the
Selberg-sieve identity checks.  Both are exponential in the number of primes,
so they serve small prime sets in the tests only."""

from fractions import Fraction


def selberg_divisor_sums(primes, D):
    """Exact (J, I, V) over the squarefree divisors of the product of ``primes``:
    J sums 1/phi(d) over d < sqrt(D), I over d >= sqrt(D), V = prod (1 - 1/p).

    Cost is 2^len(primes); intended for identity checks on small prime sets.
    """
    primes = [int(p) for p in primes]
    j_sum = Fraction(0)
    i_sum = Fraction(0)
    divisors = [(1, Fraction(1))]  # (d, 1/phi(d))
    for p in primes:
        divisors += [(d * p, h / (p - 1)) for d, h in divisors]
    for d, h in divisors:
        if d * d < D:
            j_sum += h
        else:
            i_sum += h
    v = Fraction(1)
    for p in primes:
        v *= Fraction(p - 1, p)
    return j_sum, i_sum, v


def tau3_divisor_sum(primes, D):
    """Sum of tau_3(d) over squarefree d < D dividing the product of ``primes``;
    tau_3(d) = 3^(number of prime factors) for squarefree d."""
    primes = sorted(int(p) for p in primes)
    total = 0
    stack = [(0, 1, 0)]  # (next index, product, prime count)
    while stack:
        i, d, nu = stack.pop()
        total += 3 ** nu
        for k in range(i, len(primes)):
            nd = d * primes[k]
            if nd >= D:
                break
            stack.append((k + 1, nd, nu + 1))
    return total

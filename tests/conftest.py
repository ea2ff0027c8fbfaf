"""Shared instance builders for the test suite."""

import random
from fractions import Fraction

import pytest

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, PriceDistribution,
                       PriceTrace, StockSpec)


def one_stock_spec(mu_max=1, p_max_cents=200, buy=None, sell=None,
                   budget=None) -> MarketSpec:
    return MarketSpec((StockSpec(0, mu_max, p_max_cents,
                                 buy or CostFunction(),
                                 sell or CostFunction()),),
                      budget or BudgetMode())


def uniform_two_price(lo=100, hi=200) -> PriceDistribution:
    return PriceDistribution(((lo,), (hi,)),
                             (Fraction(1, 2), Fraction(1, 2)))


def random_cost(rng: random.Random, mu_max: int, p_max: int) -> CostFunction:
    kind = rng.choice(("zero", "zero", "linear", "fixed"))
    if kind == "linear":
        return CostFunction("linear", rate=rng.randrange(0, max(p_max // 4, 1)))
    if kind == "fixed":
        return CostFunction("fixed", fee=rng.randrange(0, max(p_max // 2, 1)))
    return CostFunction()


def random_small_spec(rng: random.Random, max_stocks=3, max_mu=3,
                      with_budget=True) -> MarketSpec:
    n = rng.randint(1, max_stocks)
    stocks = []
    for i in range(n):
        mu_max = rng.randint(1, max_mu)
        p_max = rng.choice((100, 150, 200, 300, 500))
        stocks.append(StockSpec(i, mu_max, p_max,
                                random_cost(rng, mu_max, p_max),
                                random_cost(rng, mu_max, p_max)))
    budget = BudgetMode()
    if with_budget and rng.random() < 0.4:
        budget = BudgetMode("money",
                            money=rng.randrange(100, 1500))
    return MarketSpec(tuple(stocks), budget)


def buy_coeffs(solver, prices, queue) -> list:
    """The solver's buy coefficients S*q_n - S*theta_n + k*p_n, formed
    from its `terms` here rather than read from its per-stock tables."""
    terms = solver.terms
    return [terms.scale * q - terms.thetaS[n] + terms.k * p
            for n, (p, q) in enumerate(zip(prices, queue))]


def random_dist(rng: random.Random, spec: MarketSpec,
                n_points=2) -> PriceDistribution:
    support = set()
    while len(support) < n_points:
        support.add(tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks))
    support = tuple(support)
    weights = [rng.randint(1, 5) for _ in support]
    total = sum(weights)
    return PriceDistribution(support,
                             tuple(Fraction(w, total) for w in weights))


def random_trace(rng: random.Random, spec: MarketSpec,
                 length: int) -> PriceTrace:
    rows = tuple(tuple(rng.randrange(0, s.p_max + 1) for s in spec.stocks)
                 for _ in range(length))
    return PriceTrace(rows, source="test")


def adversarial_trace(spec: MarketSpec, length: int) -> PriceTrace:
    """Worst-case alternation: every stock swings cap-to-zero, staggered."""
    rows = []
    for t in range(length):
        rows.append(tuple(s.p_max if (t + i) % 2 == 0 else 0
                          for i, s in enumerate(spec.stocks)))
    return PriceTrace(tuple(rows), source="adversarial")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

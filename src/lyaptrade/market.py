"""Static market description, per-slot feasibility and profit accounting.

Everything here is an immutable value; the operations are pure functions,
so specs and states can be shared freely across parallel replications.
Money is integer cents throughout (see money.py).
"""

from __future__ import annotations

from ._record import Record, factory
from .errors import ConfigError, ParseError, StructuralError
from .money import _integer, to_cents

# Violation labels emitted by validate_decision.
SELL_LIMIT = "sell_limit"          # per-stock per-slot sell cap
SELL_FEE_COVER = "sell_fee_cover"  # sale proceeds must cover the sell fee
OWNERSHIP = "ownership"            # cannot sell more shares than held
BUY_LIMIT = "buy_limit"            # per-stock per-slot buy cap
BUDGET = "budget"                  # money or total-share purchase budget


class CostFunction(Record, frozen=True):
    """Transaction cost schedule for one side (buy or sell) of one stock.

    kind is one of "zero", "linear", "fixed", "table".  All money fields
    are integer cents.  The schedule must be 0 at 0 shares and
    non-decreasing; "linear" and "fixed" are concave by construction.
    """

    kind: str = "zero"
    rate: int = 0            # cents per share (linear)
    fee: int = 0             # flat cents for any positive trade (fixed)
    values: tuple = ()       # cents at 0..mu_max shares (table)
    declared_max: int | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "fixed", "table"):
            raise ConfigError(f"unknown cost kind {self.kind!r}")
        if self.kind == "linear" and self.rate < 0:
            raise ConfigError("linear cost rate must be non-negative")
        if self.kind == "fixed" and self.fee < 0:
            raise ConfigError("fixed cost fee must be non-negative")
        if self.kind == "table":
            vals = tuple(self.values)
            if not vals or vals[0] != 0:
                raise ConfigError("table cost must start at 0 for 0 shares")
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise ConfigError("table cost must be non-decreasing")
            object.__setattr__(self, "values", vals)

    def __call__(self, shares: int) -> int:
        if shares < 0:
            raise StructuralError("negative share count")
        if shares == 0:
            return 0
        if self.kind == "zero":
            return 0
        if self.kind == "linear":
            return self.rate * shares
        if self.kind == "fixed":
            return self.fee
        if shares >= len(self.values):
            raise StructuralError(
                f"table cost defined up to {len(self.values) - 1} shares, got {shares}")
        return self.values[shares]

    def max_over(self, mu_max: int) -> int:
        """Largest cost over 0..mu_max shares (the declared bound if given)."""
        worst = max(self(k) for k in range(mu_max + 1))
        if self.declared_max is not None:
            if worst > self.declared_max:
                raise ConfigError("cost exceeds its declared maximum")
            return self.declared_max
        return worst

    def is_concave(self, mu_max: int) -> bool:
        incr = [self(k + 1) - self(k) for k in range(mu_max)]
        return all(b <= a for a, b in zip(incr, incr[1:]))

    @staticmethod
    def from_json(obj) -> "CostFunction":
        kind = obj.get("kind", "zero")
        declared = obj.get("max")
        declared = None if declared is None else to_cents(declared, what="cost max")
        if kind == "zero":
            return CostFunction("zero", declared_max=declared)
        if kind == "linear":
            return CostFunction("linear", rate=to_cents(obj["rate"], what="cost rate"),
                                declared_max=declared)
        if kind == "fixed":
            return CostFunction("fixed", fee=to_cents(obj["fee"], what="cost fee"),
                                declared_max=declared)
        if kind == "table":
            vals = tuple(to_cents(v, what="cost table entry") for v in obj["values"])
            return CostFunction("table", values=vals, declared_max=declared)
        raise ConfigError(f"unknown cost kind {kind!r}")

    def to_json(self):
        from .money import cents_to_str
        out = {"kind": self.kind}
        if self.kind == "linear":
            out["rate"] = cents_to_str(self.rate)
        elif self.kind == "fixed":
            out["fee"] = cents_to_str(self.fee)
        elif self.kind == "table":
            out["values"] = [cents_to_str(v) for v in self.values]
        if self.declared_max is not None:
            out["max"] = cents_to_str(self.declared_max)
        return out


class StockSpec(Record, frozen=True):
    """Per-stock limits and cost schedules.  p_max is in cents."""

    index: int
    mu_max: int
    p_max: int
    buy_cost: CostFunction = factory(CostFunction)
    sell_cost: CostFunction = factory(CostFunction)

    def __post_init__(self):
        if self.mu_max < 1:
            raise ConfigError("mu_max must be at least 1")
        if self.p_max <= 0:
            raise ConfigError("p_max must be positive")
        for side in (self.buy_cost, self.sell_cost):
            if side.kind == "table" and len(side.values) != self.mu_max + 1:
                raise ConfigError(
                    f"table cost needs exactly {self.mu_max + 1} entries")
            side.max_over(self.mu_max)  # validates the declared bound

    def proceeds(self, m: int, p: int) -> int:
        """Cents from selling m shares at p net of the sell fee; a sale is
        allowed only when this is non-negative (the fee cover)."""
        return m * p - self.sell_cost(m)

    def outlay(self, a: int, p: int) -> int:
        """Cents paid for buying a shares at p, fee included."""
        return a * p + self.buy_cost(a)


class BudgetMode(Record, frozen=True):
    """Purchase budget: per-slot money cap, total-share cap, or none."""

    mode: str = "none"        # "money" | "shares" | "none"
    money: int = 0            # cents, when mode == "money"
    shares: int = 0           # total shares per slot, when mode == "shares"

    def __post_init__(self):
        if self.mode not in ("money", "shares", "none"):
            raise ConfigError(f"unknown budget mode {self.mode!r}")
        if self.mode == "money" and self.money <= 0:
            raise ConfigError("money budget must be positive")
        if self.mode == "shares" and self.shares < 1:
            raise ConfigError("share budget must be at least 1")

    def purchase_rule(self, prices) -> tuple:
        """(sizes, limit): buys a fit the budget at these prices when
        sum_n sizes[n] * a_n <= limit.  Money weighs a share by its price
        in cents, a share budget by 1, and no budget by 0."""
        if self.mode == "money":
            return prices, self.money
        if self.mode == "shares":
            return (1,) * len(prices), self.shares
        return (0,) * len(prices), 0


class MarketSpec(Record, frozen=True):
    stocks: tuple
    budget: BudgetMode = factory(BudgetMode)

    def __post_init__(self):
        stocks = tuple(self.stocks)
        if not stocks:
            raise ConfigError("need at least one stock")
        if [s.index for s in stocks] != list(range(len(stocks))):
            raise ConfigError("stock indices must be contiguous from 0")
        object.__setattr__(self, "stocks", stocks)

    @property
    def n_stocks(self) -> int:
        return len(self.stocks)

    def check_prices(self, prices) -> tuple:
        """Validate a per-stock cents price vector against the caps."""
        prices = tuple(map(int, prices))
        if len(prices) != self.n_stocks:
            raise StructuralError(
                f"price vector has {len(prices)} entries, expected {self.n_stocks}")
        for s, p in zip(self.stocks, prices):
            if p < 0:
                raise StructuralError(f"negative price for stock {s.index}")
            if p > s.p_max:
                raise StructuralError(
                    f"price {p} exceeds cap {s.p_max} for stock {s.index}")
        return prices

    def with_p_max(self, new_caps) -> "MarketSpec":
        """Copy of this spec with raised per-stock price caps."""
        return self.replace(stocks=tuple(
            s.replace(p_max=max(s.p_max, int(c)))
            for s, c in zip(self.stocks, new_caps)))

    @staticmethod
    def from_json(obj) -> "MarketSpec":
        try:
            stocks = tuple(_located(f"/market/stocks/{i}", _stock_from_json,
                                    s, i) for i, s in enumerate(obj["stocks"]))
            if not stocks:
                raise ConfigError("need at least one stock",
                                  location="/market/stocks")
            budget = _located("/market/budget", _budget_from_json,
                              obj.get("budget", {"mode": "none"}))
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise ConfigError(str(exc), location="/market") from exc
        return MarketSpec(stocks, budget)

    def to_json(self):
        from .money import cents_to_str
        out = {"stocks": [], "budget": {"mode": self.budget.mode}}
        for s in self.stocks:
            out["stocks"].append({
                "mu_max": s.mu_max,
                "p_max": cents_to_str(s.p_max),
                "buy_cost": s.buy_cost.to_json(),
                "sell_cost": s.sell_cost.to_json(),
            })
        if self.budget.mode == "money":
            out["budget"]["value"] = cents_to_str(self.budget.money)
        elif self.budget.mode == "shares":
            out["budget"]["value"] = self.budget.shares
        return out


def _located(where, build, obj, *args):
    """build(obj, *args); a non-object `obj`, a missing field or an
    unlocated ConfigError is a ConfigError at `where`."""
    try:
        if not isinstance(obj, dict):
            raise ConfigError(f"{obj!r} is not an object")
        return build(obj, *args)
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}", location=where) from exc
    except ConfigError as exc:
        if exc.location:
            raise
        raise ConfigError(str(exc), location=where) from exc


def _stock_from_json(s, i) -> StockSpec:
    where = f"/market/stocks/{i}"
    costs = {side: CostFunction() if s.get(side) is None else _located(
        f"{where}/{side}", CostFunction.from_json, s[side])
        for side in ("buy_cost", "sell_cost")}
    return StockSpec(i, _integer(s["mu_max"], f"{where}/mu_max"),
                     to_cents(s["p_max"], what=f"stocks[{i}].p_max"), **costs)


def _budget_from_json(b) -> BudgetMode:
    mode = b.get("mode", "none")
    if mode == "money":
        return BudgetMode("money", money=to_cents(b["value"],
                                                  what="budget.value"))
    if mode == "shares":
        return BudgetMode("shares", shares=_integer(
            b["value"], "/market/budget/value"))
    if mode != "none":
        raise ConfigError(f"unknown budget mode {mode!r} (known: money, "
                          "shares, none)", location="/market/budget/mode")
    return BudgetMode("none")


class TradeDecision(Record, frozen=True):
    """Integer buy and sell vectors for one slot."""

    buys: tuple
    sells: tuple

    def __post_init__(self):
        object.__setattr__(self, "buys", tuple(int(a) for a in self.buys))
        object.__setattr__(self, "sells", tuple(int(m) for m in self.sells))
        if len(self.buys) != len(self.sells):
            raise StructuralError("buy and sell vectors differ in length")

    @staticmethod
    def zero(n: int) -> "TradeDecision":
        return TradeDecision((0,) * n, (0,) * n)


class Feasibility(Record, frozen=True):
    ok: bool
    violations: tuple = ()


def validate_decision(spec: MarketSpec, prices, queue,
                      d: TradeDecision) -> Feasibility:
    """Check a decision against the per-slot trading constraints.

    queue holds the shares owned per stock, which bound the sells; None
    skips the ownership check, as virtual price-only policies do.
    """
    prices = spec.check_prices(prices)
    if len(d.buys) != spec.n_stocks:
        raise StructuralError("decision dimensioned for a different market")
    if queue is not None:
        if len(queue) != spec.n_stocks:
            raise StructuralError(
                f"queue has {len(queue)} entries, expected {spec.n_stocks}")
        if any(v < 0 for v in queue):
            raise StructuralError("queue entries must be non-negative")
    violations = []
    for s, p, a, m in zip(spec.stocks, prices, d.buys, d.sells):
        if not 0 <= m <= s.mu_max:
            violations.append((SELL_LIMIT, s.index))
        elif s.proceeds(m, p) < 0:
            violations.append((SELL_FEE_COVER, s.index))
        if queue is not None and m > queue[s.index]:
            violations.append((OWNERSHIP, s.index))
        if not 0 <= a <= s.mu_max:
            violations.append((BUY_LIMIT, s.index))
    sizes, limit = spec.budget.purchase_rule(prices)
    if sum(a * z for a, z in zip(d.buys, sizes)) > limit:
        violations.append((BUDGET, None))
    return Feasibility(not violations, tuple(violations))


def slot_profit(spec: MarketSpec, prices, d: TradeDecision) -> int:
    """Net profit of one slot's decision, in cents: sale proceeds minus
    sell fees, minus purchase outlay and buy fees."""
    prices = spec.check_prices(prices)
    if len(d.buys) != spec.n_stocks:
        raise StructuralError("decision dimensioned for a different market")
    return sum(s.proceeds(m, p) - s.outlay(a, p)
               for s, p, a, m in zip(spec.stocks, prices, d.buys, d.sells))


"""The package's records behave as the `dataclasses` they replace.

Each record class is compared with `reference_helpers.reference_record`,
a `dataclasses.make_dataclass` rebuild of it from the same fields,
defaults and methods, on one instance taken from a real run.
"""

import dataclasses
import functools
import pickle
from fractions import Fraction

import pytest

from lyaptrade import (BoundConstants, BoundReport, BudgetMode, CostFunction,
                       ExperimentConfig, Feasibility, LookaheadResult,
                       MarketSpec, MarkovPriceModel, PonlyPolicy,
                       PonlySolution, PriceDistribution, PriceTrace,
                       StockSpec, TradeDecision, TraderParams, Trajectory,
                       compute_constants, config_from_json, enumerate_actions,
                       lookahead_psi, run_backtest, solve_phi_opt,
                       validate_decision, verify_queue_band)
from lyaptrade.config import SourceConfig
from lyaptrade.errors import ConfigError, StructuralError
from lyaptrade.oracles import ActionSet
from lyaptrade.trader import ScaledTerms, scaled_terms

from reference_helpers import reference_record

DOC = {
    "market": {"stocks": [
        {"mu_max": 2, "p_max": "3.00",
         "buy_cost": {"kind": "fixed", "fee": "0.05"},
         "sell_cost": {"kind": "table", "values": ["0", "0.01", "0.03"]}},
        {"mu_max": 1, "p_max": "2.00",
         "buy_cost": {"kind": "linear", "rate": "0.02", "max": "0.05"}}],
        "budget": {"mode": "money", "value": "4.00"}},
    "trader": {"V": "21/2", "theta": ["40", "26.5"]},
    "source": {"kind": "iid", "support": [["1.00", "2.00"], ["3.00", "0.50"]],
               "probs": ["1/3", "2/3"]},
    "horizon": 12, "seed": 3, "verify": ["dynamics"],
    "options": {"window": 3},
}
MUTABLE = (Trajectory, BoundReport)


def instances() -> dict:
    """One instance of every record class, each from the package's API."""
    cfg = config_from_json(DOC)
    spec, params, dist = cfg.market, cfg.trader, cfg.source.dist
    stock = spec.stocks[0]
    traj = run_backtest(spec, params, dist, 12, seed=3)
    solution = solve_phi_opt(spec, dist)
    actions = enumerate_actions(spec, dist.support[0])
    chain = MarkovPriceModel(dist.support, ((0.5, 0.5), ("1/4", "3/4")))
    report = verify_queue_band(traj)
    return {
        CostFunction: stock.sell_cost, StockSpec: stock,
        BudgetMode: spec.budget, MarketSpec: spec,
        TradeDecision: actions.actions[-1],
        Feasibility: validate_decision(spec, (100, 200), (0, 0),
                                       actions.actions[-1]),
        PriceDistribution: dist, MarkovPriceModel: chain,
        PriceTrace: PriceTrace(tuple(traj.prices), "book"),
        TraderParams: params, ScaledTerms: scaled_terms(spec, params),
        Trajectory: traj,
        BoundConstants: compute_constants(spec, 3),
        BoundReport: report.replace(detail={"stock": 1}, locus=[4]),
        SourceConfig: cfg.source, ExperimentConfig: cfg,
        ActionSet: actions, PonlyPolicy: solution.policy,
        PonlySolution: solution,
        LookaheadResult: lookahead_psi(spec, traj.prices[:3]),
    }


# Per class: a change replace() takes, and one its checks reject (with
# the error), or None where no field is checked.
CHANGES = {
    CostFunction: ({"kind": "linear", "rate": 3},
                   ({"kind": "fixed", "fee": -1}, ConfigError)),
    StockSpec: ({"mu_max": 1, "sell_cost": CostFunction()},
                ({"p_max": 0}, ConfigError)),
    BudgetMode: ({"mode": "shares", "shares": 2},
                 ({"mode": "weekly"}, ConfigError)),
    MarketSpec: ({"budget": BudgetMode()}, ({"stocks": ()}, ConfigError)),
    TradeDecision: ({"buys": (0, 1)}, ({"sells": (1,)}, StructuralError)),
    Feasibility: ({"ok": False, "violations": (("budget", None),)}, None),
    PriceDistribution: ({"probs": (1, 3)}, ({"probs": (1,)}, ConfigError)),
    MarkovPriceModel: ({"transition": ((0, 1), (1, 0))},
                       ({"transition": ((1, 0), (0, 1))}, ConfigError)),
    PriceTrace: ({"source": "again"}, ({"sequence": ((1,), (1, 2))},
                                       ConfigError)),
    TraderParams: ({"buy_solver": "greedy", "V": "3"},
                   ({"buy_solver": "fastest"}, ConfigError)),
    ScaledTerms: ({"k": 7}, None),
    Trajectory: ({"prices": [(100, 200)]}, None),
    BoundConstants: ({"window": 5}, None),
    BoundReport: ({"verdict": "fail", "slack": -1.5}, None),
    SourceConfig: ({"kind": "trace", "path": "prices.csv"}, None),
    ExperimentConfig: ({"seed": 9, "options": {"window": 2}},
                       ({"horizon": 0}, ConfigError)),
    ActionSet: ({"price": (1, 2)}, None),
    PonlyPolicy: ({"table": ()}, None),
    PonlySolution: ({"phi_opt": Fraction(1, 7)}, None),
    LookaheadResult: ({"psi_cents": -4}, None),
}
RECORDS = list(CHANGES)


def fields(cls) -> tuple:
    return tuple(vars(cls)["__annotations__"])


@functools.cache
def reference(cls):
    return reference_record(cls, frozen=cls not in MUTABLE)


def pair(cls, **changes):
    """(record, reference) built from the same field values."""
    Ref = reference(cls)
    record = instances()[cls]
    values = {f: getattr(record, f) for f in fields(cls)}
    return cls(**values).replace(**changes), \
        dataclasses.replace(Ref(**values), **changes)


def hashed(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def test_every_record_is_covered():
    assert sorted(c.__name__ for c in instances()) == sorted(
        c.__name__ for c in RECORDS)
    assert len(RECORDS) == 20


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestParity:
    def test_construction_and_repr(self, cls):
        record, ref = pair(cls)
        values = [getattr(record, f) for f in fields(cls)]
        assert repr(record) == repr(ref)
        assert repr(cls(*values)) == repr(record)
        assert repr(cls(*values[:1], **dict(zip(fields(cls)[1:],
                                               values[1:])))) == repr(record)

    def test_eq(self, cls):
        record, ref = pair(cls)
        again, ref_again = pair(cls)
        changed, ref_changed = pair(cls, **CHANGES[cls][0])
        assert record == again and ref == ref_again
        assert (record == changed) is (ref == ref_changed) is False
        assert (record != again) is (ref != ref_again) is False
        # Only a record of the same class is equal.
        assert record != ref and record != tuple(vars(record).values())

    def test_hash(self, cls):
        record, ref = pair(cls)
        assert hashed(record) == hashed(ref)
        if cls in MUTABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)

    def test_replace(self, cls):
        valid, invalid = CHANGES[cls]
        record, ref = pair(cls, **valid)
        assert repr(record) == repr(ref)
        for f in valid:
            assert getattr(record, f) == getattr(ref, f)
        if invalid is not None:
            change, error = invalid
            with pytest.raises(error) as got:
                pair(cls, **change)[0]
            with pytest.raises(error) as want:
                dataclasses.replace(pair(cls)[1], **change)
            assert str(got.value) == str(want.value)
        record = pair(cls)[0]
        assert record.replace() == record
        with pytest.raises(TypeError, match="no_such_field"):
            record.replace(no_such_field=1)

    def test_pickle_round_trip(self, cls):
        record = pair(cls)[0]
        hashed(record)
        again = pickle.loads(pickle.dumps(record))
        assert "_hash" not in vars(again)
        assert again == record and repr(again) == repr(record)
        assert hashed(again) == hashed(record)

    def test_assignment(self, cls):
        record, ref = pair(cls)
        name = fields(cls)[0]
        value = getattr(record, name)
        if cls in MUTABLE:
            setattr(record, name, value)
            setattr(ref, name, value)
            return
        for x in (record, ref):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
            with pytest.raises(AttributeError):
                x.unrelated = 1
        assert getattr(record, name) is value

    def test_fresh_defaults(self, cls):
        Ref = reference(cls)
        record = instances()[cls]
        required = {f: getattr(record, f) for f in fields(cls)
                    if f not in vars(cls)}
        a, b, ref = cls(**required), cls(**required), Ref(**required)
        assert a == b and repr(a) == repr(ref)
        for f in fields(cls):
            if isinstance(getattr(a, f), (list, dict)):
                assert getattr(a, f) is not getattr(b, f)
                assert getattr(a, f) == getattr(ref, f)


def test_missing_field_is_named():
    with pytest.raises(TypeError, match=r"TradeDecision\(\) is missing 'sells'"):
        TradeDecision((1,))


@pytest.mark.parametrize("args, kwargs, got", [
    (((1,), (0,)), {"buys": (2,)}, "2 by position and buys by keyword"),
    (((1,), (0,), (2,)), {}, "3 by position and none by keyword"),
    ((), {"buys": (1,), "sells": (0,), "x": 1},
     "0 by position and buys, sells, x by keyword"),
], ids=["twice", "too-many", "unknown"])
def test_bad_arguments_name_the_fields(args, kwargs, got):
    with pytest.raises(TypeError,
                       match=f"takes the fields buys, sells; got {got}$"):
        TradeDecision(*args, **kwargs)

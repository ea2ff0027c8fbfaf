"""Market spec, feasibility checking, profit accounting, dynamics."""

import json

import pytest

from lyaptrade import (BudgetMode, CostFunction, MarketSpec, StockSpec,
                       TradeDecision, TraderParams, Trajectory,
                       cents_to_str, cents_to_units, slot_profit, to_cents,
                       validate_decision)
from lyaptrade.errors import ConfigError, ParseError, StructuralError
from lyaptrade.market import (BUDGET, BUY_LIMIT, OWNERSHIP, SELL_FEE_COVER,
                              SELL_LIMIT)
from lyaptrade.trader import SlotSolver

from conftest import one_stock_spec


class TestMoney:
    def test_round_trip(self):
        assert to_cents("1.50") == 150
        assert to_cents(2) == 200
        assert to_cents(0.1) == 10
        assert cents_to_str(150) == "1.50"
        assert cents_to_str(-7) == "-0.07"
        assert cents_to_units(150) * 2 == 3

    def test_sub_cent_rejected(self):
        with pytest.raises(ParseError):
            to_cents("1.005")

    def test_bool_is_not_money(self):
        with pytest.raises(ParseError):
            to_cents(True)


class TestCostFunction:
    def test_zero_at_zero_shares(self):
        for c in (CostFunction(), CostFunction("linear", rate=50),
                  CostFunction("fixed", fee=30),
                  CostFunction("table", values=(0, 10, 15))):
            assert c(0) == 0

    def test_monotone_over_domain(self):
        # exhaustive scan; the domain is finite
        for c in (CostFunction("linear", rate=7), CostFunction("fixed", fee=5),
                  CostFunction("table", values=(0, 3, 3, 9))):
            vals = [c(k) for k in range(4)]
            assert vals == sorted(vals)

    def test_table_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            CostFunction("table", values=(5, 10))

    def test_table_must_be_nondecreasing(self):
        with pytest.raises(ConfigError):
            CostFunction("table", values=(0, 10, 5))

    def test_declared_max_validated(self):
        with pytest.raises(ConfigError):
            StockSpec(0, 2, 100,
                      buy_cost=CostFunction("linear", rate=60,
                                            declared_max=100))

    def test_concavity(self):
        assert CostFunction("linear", rate=5).is_concave(3)
        assert CostFunction("fixed", fee=5).is_concave(3)
        assert not CostFunction("table", values=(0, 1, 5, 20)).is_concave(3)


class TestStockSpec:
    def test_table_length_must_match_mu_max(self):
        with pytest.raises(ConfigError):
            StockSpec(0, 3, 100,
                      sell_cost=CostFunction("table", values=(0, 1)))

    def test_positive_limits_required(self):
        with pytest.raises(ConfigError):
            StockSpec(0, 0, 100)
        with pytest.raises(ConfigError):
            StockSpec(0, 1, 0)


class TestValidateDecision:
    def test_zero_decision_always_ok(self):
        spec = one_stock_spec()
        verdict = validate_decision(spec, (100,), (0,), TradeDecision.zero(1))
        assert verdict.ok

    def test_selling_more_than_held(self):
        spec = one_stock_spec(mu_max=2)
        verdict = validate_decision(spec, (100,), (1,),
                                    TradeDecision((0,), (2,)))
        assert (OWNERSHIP, 0) in verdict.violations

    def test_ownership_skipped_for_virtual_policies(self):
        spec = one_stock_spec(mu_max=2)
        verdict = validate_decision(spec, (100,), None,
                                    TradeDecision((0,), (2,)))
        assert verdict.ok

    def test_sale_must_cover_fee(self):
        # fixed 0.50 fee, sale at 0.40: proceeds below the fee
        spec = one_stock_spec(sell=CostFunction("fixed", fee=50))
        verdict = validate_decision(spec, (40,), (5,),
                                    TradeDecision((0,), (1,)))
        assert (SELL_FEE_COVER, 0) in verdict.violations

    def test_fee_cover_is_non_negative_proceeds(self):
        # A sale whose proceeds exactly pay the fee is allowed.
        stock = StockSpec(0, 2, 200, buy_cost=CostFunction("linear", rate=5),
                          sell_cost=CostFunction("fixed", fee=50))
        assert stock.proceeds(1, 50) == 0
        assert stock.proceeds(0, 0) == 0
        assert stock.outlay(2, 30) == 70
        spec = MarketSpec((stock,))
        assert validate_decision(spec, (50,), None,
                                 TradeDecision((0,), (1,))).ok
        assert not validate_decision(spec, (49,), None,
                                     TradeDecision((0,), (1,))).ok

    def test_money_budget(self):
        spec = one_stock_spec(mu_max=3,
                              budget=BudgetMode("money", money=150))
        verdict = validate_decision(spec, (100,), (0,),
                                    TradeDecision((2,), (0,)))
        assert (BUDGET, None) in verdict.violations

    def test_dimension_mismatch(self):
        with pytest.raises(StructuralError):
            validate_decision(one_stock_spec(), (100,), (0,),
                              TradeDecision((0, 0), (0, 0)))

    def test_queue_needs_one_entry_per_stock(self):
        # A short queue must not silently drop the stocks past its end.
        spec = MarketSpec((StockSpec(0, 1, 200), StockSpec(1, 1, 200)))
        d = TradeDecision((0, 99), (0, 99))
        verdict = validate_decision(spec, (100, 100), (0, 0), d)
        assert set(verdict.violations) == {
            (SELL_LIMIT, 1), (OWNERSHIP, 1), (BUY_LIMIT, 1)}
        for queue in ((0,), (0, 0, 0)):
            with pytest.raises(StructuralError, match="queue has"):
                validate_decision(spec, (100, 100), queue, d)

    def test_negative_queue_entry(self):
        with pytest.raises(StructuralError, match="non-negative"):
            validate_decision(one_stock_spec(), (100,), (-1,),
                              TradeDecision.zero(1))


class TestSlotProfit:
    def test_two_stock_example(self):
        spec = MarketSpec((StockSpec(0, 1, 200), StockSpec(1, 1, 200)))
        d = TradeDecision((0, 1), (1, 0))
        assert slot_profit(spec, (200, 100), d) == 100

    def test_zero_decision_is_zero(self):
        spec = one_stock_spec(sell=CostFunction("fixed", fee=50))
        assert slot_profit(spec, (123,), TradeDecision.zero(1)) == 0

    def test_linear_buy_cost(self):
        spec = one_stock_spec(buy=CostFunction("linear", rate=50))
        assert slot_profit(spec, (100,), TradeDecision((1,), (0,))) == -150

    def test_additive_across_stocks(self):
        spec = MarketSpec((StockSpec(0, 2, 300,
                                     sell_cost=CostFunction("fixed", fee=10)),
                           StockSpec(1, 2, 300,
                                     buy_cost=CostFunction("linear", rate=5))))
        d = TradeDecision((1, 2), (2, 0))
        per_stock = sum(
            slot_profit(one_stock_spec(mu_max=2, p_max_cents=300,
                                       buy=spec.stocks[i].buy_cost,
                                       sell=spec.stocks[i].sell_cost),
                        (p,), TradeDecision((d.buys[i],), (d.sells[i],)))
            for i, p in enumerate((250, 120)))
        assert slot_profit(spec, (250, 120), d) == per_stock


class TestQueueDynamics:
    """Q <- max(Q - mu + A, 0), as Trajectory.check_dynamics checks it and
    SlotSolver.step applies it."""

    @staticmethod
    def check(queue, buys, sells, after):
        spec = MarketSpec(tuple(StockSpec(i, 3, 200)
                                for i in range(len(queue))))
        traj = Trajectory(spec, TraderParams(V=50), queue,
                          prices=[(100,) * len(queue)], buys=[buys],
                          sells=[sells], queues=[after], profits=[0])
        traj.check_dynamics()

    def test_arithmetic(self):
        self.check((5,), (1,), (2,), (4,))
        with pytest.raises(StructuralError, match="slot 0"):
            self.check((5,), (1,), (2,), (6,))

    def test_clamp_at_zero(self):
        self.check((0,), (0,), (1,), (0,))
        with pytest.raises(StructuralError):
            self.check((0,), (0,), (1,), (-1,))

    def test_per_stock(self):
        self.check((1, 1), (0, 1), (1, 0), (0, 2))
        with pytest.raises(StructuralError):
            self.check((1, 1), (0, 1), (1, 0), (2, 0))

    def test_clamp_redundant_for_owned_sales(self):
        spec = one_stock_spec(mu_max=3)
        queue = (2,)
        d = TradeDecision((0,), (2,))
        assert validate_decision(spec, (100,), queue, d).ok
        assert queue[0] - d.sells[0] + d.buys[0] >= 0
        # The policy sells only what it holds, so its step never clamps.
        solver = SlotSolver(spec, TraderParams(V=1, theta=(0,)))
        sold = 0
        for q in range(6):
            for p in (0, 50, 200):
                sells, buys, _, after = solver.step((p,), (q,))
                assert sells[0] <= q
                assert after == (q - sells[0] + buys[0],)
                self.check((q,), buys, sells, after)
                sold += sells[0] > 0
        assert sold


class TestJson:
    def test_round_trip(self):
        spec = MarketSpec(
            (StockSpec(0, 2, 1050, buy_cost=CostFunction("linear", rate=25),
                       sell_cost=CostFunction("table", values=(0, 10, 30))),),
            BudgetMode("money", money=5000))
        again = MarketSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec

    def test_money_strings_accepted(self):
        spec = MarketSpec.from_json(
            {"stocks": [{"mu_max": 1, "p_max": "10.50"}],
             "budget": {"mode": "shares", "value": 3}})
        assert spec.stocks[0].p_max == 1050
        assert spec.budget.shares == 3

    def test_bad_budget_mode(self):
        with pytest.raises(ConfigError):
            BudgetMode("weekly")

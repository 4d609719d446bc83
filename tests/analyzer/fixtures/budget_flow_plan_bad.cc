// pf_analyzer fixture: MUST trip [budget-flow] (see budget_flow_plan_good.cc
// for the clean twin). Parsed by the analyzer, never compiled.
//
// The serving path's one execute body, ExecuteBatchPlan, reached from a
// synchronous release that never charged the ledger.

struct Plan {};

int ExecuteBatchPlan(const Plan& plan, unsigned long first_ticket);

struct Session {
  int Charge(const Plan& p);

  int Release(const Plan& p) {
    return ExecuteBatchPlan(p, 0);  // Noise out, nothing recorded.
  }
};

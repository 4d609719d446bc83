// pf_analyzer fixture: clean twin of budget_flow_plan_bad.cc — MUST NOT
// trip [budget-flow]. The synchronous release charges before it executes,
// and a refused charge returns before the execute body.

struct Plan {};

int ExecuteBatchPlan(const Plan& plan, unsigned long first_ticket);

struct Session {
  int Charge(const Plan& p);

  int Release(const Plan& p) {
    const int ticket = Charge(p);
    if (ticket < 0) {
      return ticket;  // Refused: nothing executes.
    }
    return ExecuteBatchPlan(p, ticket);
  }
};

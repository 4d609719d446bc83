// pf_analyzer fixture: MUST trip [budget-flow] (see budget_flow_good.cc
// for the clean twin). Parsed by the analyzer, never compiled.
//
// Two violations:
//   1. Bad() reaches a release site with no dominating budget charge.
//   2. BadOrder() charges the ledger before acquiring an admission permit
//      (shed-before-charge says a shed request must never debit epsilon).

struct Plan {};

struct Session {
  int Charge(const Plan& p);
  int ReleaseVector(const Plan& p);
  bool TryAcquire();

  int Bad(const Plan& p) {
    return ReleaseVector(p);  // Release with no charge on any path.
  }

  int BadOrder(const Plan& p) {
    int ticket = Charge(p);  // Charge precedes admission.
    if (!TryAcquire()) {
      return -1;  // Shed AFTER the ledger was already debited.
    }
    return ticket;
  }
};

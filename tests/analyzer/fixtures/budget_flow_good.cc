// pf_analyzer fixture: clean twin of budget_flow_bad.cc — MUST NOT trip
// [budget-flow]. Every release is dominated by a charge (including through
// the early-return join), and the permit precedes the charge.

struct Plan {};

struct Session {
  int Charge(const Plan& p);
  int ReleaseVector(const Plan& p);
  bool TryAcquire();

  int Good(const Plan& p) {
    if (!TryAcquire()) {
      return -1;  // Shed before the ledger is touched.
    }
    int ticket = Charge(p);
    if (ticket < 0) {
      return ticket;  // Refused: no release happens.
    }
    return ReleaseVector(p);  // Dominated by the charge above.
  }

  int GoodBranchy(const Plan& p, bool strict) {
    if (!TryAcquire()) {
      return -1;
    }
    int ticket = 0;
    if (strict) {
      ticket = Charge(p);
    } else {
      ticket = Charge(p);
    }
    return ReleaseVector(p);  // Charged on BOTH branches of the join.
  }
};

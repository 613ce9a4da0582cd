// D007 fixture: bare barriers in campaign control flow. Round/epoch
// ordering lives in the epoch-segment schedule (per-VP round chains on
// parallel_index, a barrier at epoch rounds only); an inline pool join
// or cv wait between rounds reintroduces the per-round fork-join stall.
// (The selftest lints fixtures as if they were src/core/campaign.cpp —
// in the real tree the rule fires only there.)

struct Pool {
  void wait_idle();
};
struct Cv {
  void wait(int& lock);
};
struct Worker {
  void join();
};

void run_rounds(Pool& pool, Cv& cv, Worker& w, int lock) {
  pool.wait_idle();  // EXPECT-LINT: D007
  cv.wait(lock);  // EXPECT-LINT: D007
  w.join();  // EXPECT-LINT: D007
}

void run_rounds_ptr(Pool* pool, Worker* w) {
  pool->wait_idle();  // EXPECT-LINT: D007
  w->join();  // EXPECT-LINT: D007
}

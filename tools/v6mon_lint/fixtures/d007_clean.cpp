// D007 fixture (clean): campaign ordering expressed as epoch segments —
// per-VP round chains handed to parallel_index, the world advanced only
// once a segment's chains are done — plus the ALLOW escape for a join
// that is not a scheduling barrier. Free functions named wait/join (no
// member access) never match.

struct Pool;

void parallel_index(Pool& pool, unsigned n, void (*body)(unsigned));
void chain_body(unsigned vp);
void advance_world(unsigned round);

// Ordering as segment structure: the epoch advance follows the
// parallel_index call that ran every chain up to it, not a pool join
// between rounds.
void run_rounds(Pool& pool, unsigned num_vps, unsigned epoch_round) {
  parallel_index(pool, num_vps, &chain_body);
  advance_world(epoch_round);
  parallel_index(pool, num_vps, &chain_body);
}

struct SpoolWriter {
  void join();
};

// A join that drains an IO writer at campaign teardown is not a
// round-scheduling barrier — ALLOW with that reason.
void finalize(SpoolWriter& writer) {
  // V6MON_LINT_ALLOW(D007): teardown drain of the spool writer after
  // the last segment completed — no round ordering depends on it
  writer.join();
}

void wait(int rounds);

void free_functions_do_not_match() {
  wait(3);
}

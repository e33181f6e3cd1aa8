// Outside core/, sched/, sim/ and workload/ a wall clock is no finding, but
// a std hash container is one anywhere but util/hashed.h (never compiled).
long wall() { return std::chrono::system_clock::now(); }
std::unordered_set<long> seen;  // 6

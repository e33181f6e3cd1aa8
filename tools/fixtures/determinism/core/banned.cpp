// One line of each banned form in a deterministic directory; each numbered
// line is a finding of tools/determinism_tokens.cmake (never compiled).
#include <unordered_map>                                  // 1
long wall() { return std::chrono::system_clock::now(); }  // 2
void seed() { srand(42); }                                // 3
int roll() { return std::rand() % 6; }                    // 4
long now() { return static_cast<long>(time(nullptr)); }   // 5

// No findings: banned words inside longer names, a time() given an
// argument, a monotonic clock, and text after //: rand() time()
long walltime(long t) { return t; }
long operand(long t) { return t; }
long at(std::time_t* t) { return std::time(t); }
auto tick() { return std::chrono::steady_clock::now(); }

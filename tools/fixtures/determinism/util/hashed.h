// The one file that may name a std hash container (never compiled).
#include <unordered_map>
#include <unordered_set>

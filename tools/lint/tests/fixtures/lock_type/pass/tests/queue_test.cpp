// Fixture: outside src/ the check does not apply.
#include <mutex>

std::mutex test_only_mutex;

// Fixture: outside src/ the check does not apply.
#if defined(__x86_64__)
[[gnu::target("avx2")]] void probe() {}
#endif

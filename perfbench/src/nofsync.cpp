// Preloaded into qols_server by the durable-restart workload, and linked into
// the benchmark program for its in-process durable stacks: fsync() returns at once
// instead of waiting for the disk. The benchmark may write only
// inside its checkout, so it cannot put the spill directory on tmpfs; this
// gives the same conditions on any filesystem. Every write, rename and
// unlink still happens; only the wait for the device is left out, so
// durable-restart does not measure fsync latency.
#include <unistd.h>

extern "C" int fsync(int fd) { return fd >= 0 ? 0 : -1; }

// declpat-worker is a rank-host worker process of the distributed runtime.
// It dials the launcher's control plane, receives its job and contiguous
// global rank range in the welcome frame, and runs the unmodified algorithm
// kernels with every barrier, gather, termination wave, and recovery fence
// carried as wire frames. While it runs it streams its trace batches and
// substrate telemetry to the launcher, which serves the telemetry per worker
// on declpat-launch -metrics. Kill it mid-run and the launcher respawns it;
// the replacement reloads the last committed checkpoint and the fleet
// converges on a result bit-identical to the fault-free run.
//
// declpat-launch normally spawns copies of itself as workers (configured by
// the DECLPAT_MP_ADDR / DECLPAT_MP_WORKER environment); this binary is the
// standalone form, for launches given -worker-bin or for dialing a
// launcher by hand:
//
//	declpat-worker -host 127.0.0.1:9731 -index 2
//
// Without -host it prints usage and exits 2.
//
// Exit codes (the launcher logs which it saw on respawn):
//
//	0 clean completion or graceful SIGTERM departure
//	1 fatal error (bad job, dial failure)
//	2 usage
//	3 restart requested (the fleet aborted; respawn me)
//	4 control peer closed the connection
//	5 control frame failed to decode (protocol damage, not a dead peer)
package main

import (
	"flag"
	"fmt"
	"os"

	"declpat/internal/mp"
)

func main() {
	// Launcher-spawned rank hosts are configured by environment; this call
	// does not return for them.
	mp.MaybeWorker()

	host := flag.String("host", "", "control-plane address of the launcher to dial")
	index := flag.Int("index", -1, "worker index within the fleet")
	flag.Parse()

	if *host == "" || *index < 0 {
		fmt.Fprintln(os.Stderr, "declpat-worker: -host and -index are required")
		flag.Usage()
		os.Exit(mp.ExitUsage)
	}
	os.Exit(mp.RunWorker(*host, *index))
}

(** A /proc-style introspection file system for the simulated kernel.

    Mount it anywhere (conventionally [/proc]) to read live kernel state
    through the ordinary file API — dogfooding the pseudo file system
    substrate the paper's negative-dentry discussion covers (§5.2):

    - [dcache/stats]      — every declared counter ({!Dcache_util.Counters}),
                            zeros included, one [name value] per line
    - [dcache/summary]    — dentry count and primary-table occupancy
    - [dcache/config]     — the active directory-cache configuration
    - [dcache/histograms] — per-outcome-class lookup latency (p50/p90/p99)
                            and the prefix-resume depths
    - [dcache/causes]     — this kernel's cause-attributed miss/invalidation
                            counters
    - [dcache/trace]      — event-ring status plus the newest events
    - [faults]            — fault-injector sites: schedule/arrivals/injected
    - [netfs/rpc]         — netfs RPC totals (drops/retries/giveups/DRC/
                            partitions/crashes/fenced) plus exact per-site
                            fault arrival/injection tallies; a server with
                            zero traffic renders all-zero figures, never
                            the absent-server placeholder
    - [netfs/leases]      — the lease book (§3.7): epoch, grace, grant
                            gauges, the lease-age histogram, and
                            per-client grant/gate/break lines
    - [version]           — build banner

    [faults]/[netfs] attach the corresponding subsystems; without them the
    files report that nothing is attached.  Every [dcache/] file but
    [trace] reads only this kernel: its counters and timer table.
    The event ring is program-wide (a netfs server and its clients share
    one timeline), so [dcache/trace] reads the same ring from any
    kernel's procfs. *)

val make :
  ?faults:Dcache_util.Fault.t ->
  ?netfs:Dcache_fs.Netfs.server ->
  Kernel.t ->
  Dcache_fs.Fs_intf.t

val causes_to_string : Kernel.t -> string
(** The content of [dcache/causes]: one [name value] line per cause. *)

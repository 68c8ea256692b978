(** Kernel-wide tracing & metrics: event ring and per-outcome-class
    latency histograms.

    Everything is compiled in unconditionally and disarmed by default.
    The overhead discipline, proven by [test/t_alloc.ml] and the [trace]
    benchmark:

    - disarmed, every probe-site hook is one load-and-branch and allocates
      nothing — the warm fastpath keeps its zero-allocation guarantee;
    - an {e armed} ring {!stamp} is still allocation-free (the ring is
      three preallocated int arrays; the default timestamp is the stamp's
      own sequence number);
    - only [timing] mode pays for clock reads (two {!Clock.monotonic_ns}
      calls per lookup — ~100-150 ns, and allocation-free only as long as
      the compiler inlines the clock stub), which is why it is a separate
      switch.

    State is global (the subsystems it observes span kernel instances);
    call {!reset} between experiments. *)

(** {2 Switches} *)

val armed : bool ref
(** Gates the event ring.  {!arm}/{!disarm} flip it together with
    [timing]; set directly for ring-only capture. *)

val timing : bool ref
(** Gates latency-histogram recording (and its clock reads) in the
    fastpath entry. *)

val real_clock : bool ref
(** When set, ring stamps record {!Clock.monotonic_ns} instead of the
    sequence number — real timestamps at the cost of a clock read per
    stamp.  Default [false]. *)

val arm : unit -> unit
(** [armed := true; timing := true]. *)

val disarm : unit -> unit

val reset : unit -> unit
(** Empty the ring and reset the histograms.  Leaves the switches alone. *)

(** {2 The event ring} *)

val stamp : int -> int -> unit
(** [stamp ev arg] appends an event when armed; disarmed it is a branch.
    Never allocates ([real_clock] adds a clock read per stamp; see
    {!Clock.monotonic_ns} for its allocation caveat). *)

val configure : capacity:int -> unit
(** Replace the ring (default capacity 8192 events); empties it.
    @raise Invalid_argument unless [capacity] is a positive power of 2. *)

val capacity : unit -> int

val recorded : unit -> int
(** Total stamps since the last {!reset}/{!configure} (may exceed
    {!capacity}; the ring keeps the newest). *)

val dropped : unit -> int
(** Stamps the ring has overwritten: [max 0 (recorded - capacity)]. *)

val iter_events : (int -> int -> int -> int -> int -> unit) -> unit
(** [iter_events f] calls [f seq ts ev arg span] oldest-first over the
    retained events ([span] is the recording request's {!Profiler} span
    id, 0 when none). *)

val ring_to_string : ?limit:int -> unit -> string
(** Header ([armed]/[timing]/[capacity]/[recorded]/[dropped]) plus the
    newest [limit] (default 64) events, one [seq ts name arg] per line
    (with a [span=N] suffix when the event carries a span). *)

val dump_chrome : unit -> string
(** The retained ring as Chrome [trace_event] JSON, loadable in
    chrome://tracing / Perfetto: one instant per ring entry (span id in
    [args]), an async "b"/"e" bracket per distinct span, and a flow
    "s"/"f" pair per {!ev_span_link} connecting the causing span's lane to
    the link — cross-client lease-break causality reads as one flow. *)

(** {2 Event ids} *)

val ev_fast_hit : int
val ev_fast_neg : int
val ev_fallback : int
val ev_slowpath : int
val ev_dlht_insert : int
val ev_dlht_remove : int
val ev_pcc_insert : int
val ev_pcc_stale : int
val ev_inval_rename : int
val ev_inval_chmod : int
val ev_quarantine : int
val ev_complete_neg : int
val ev_refwalk : int
val ev_rpc_drop : int
val ev_rpc_retry : int
val ev_rpc_giveup : int
val ev_rpc_drc_hit : int
val ev_fault_fire : int

val ev_dlht_resize : int
(** The DLHT doubled in one write-locked rehash; arg = new bucket count. *)

val ev_lockless_retry : int
(** An optimistic (lockless) fastpath probe failed seqcount validation and
    was retried under the read lock. *)

val ev_dlht_sigless_scan : int
(** [Dlht.remove] could not locate the bucket head from the dentry's
    signature and fell back to a whole-table identity scan; arg = dentry
    id.  Defensive path — loud because it means the detach ordering
    invariant was broken somewhere. *)

val ev_prefix_resume : int
(** A missed lookup resumed the slowpath from a cached ancestor (§3.5);
    arg = number of already-cached components skipped (the resume depth). *)

val ev_prefix_negfail : int
(** A missed lookup was answered negatively from its prefix alone — a
    cached negative ancestor, or a DIR_COMPLETE deepest ancestor lacking
    the next component — with no write lock and no walk; arg = depth of
    the deciding ancestor. *)

val ev_stripe_contended : int
(** A sharded mutation found its stripe mutex already held and had to
    block; arg = stripe index.  Stamped by {!Locktab.lock}. *)

val ev_lease_grant : int
(** The netfs server granted (or refreshed) a per-inode lease to a client;
    arg = inode number. *)

val ev_lease_expire : int
(** A client's lockless lease gate found the lease past its expiry and
    forced a revalidating fallback; arg = inode number. *)

val ev_lease_break : int
(** The server broke a granted lease because the inode was mutated; arg =
    inode number.  One stamp per (inode, holder) delivery attempt. *)

val ev_lease_fence : int
(** Epoch fencing: a duplicate-reply-cache entry or a client lease table
    from a pre-crash server epoch was discarded instead of trusted; arg =
    the stale epoch. *)

val ev_rpc_partition : int
(** The network partition fault site swallowed an exchange (request lost
    before execution, regardless of idempotency); arg = attempt number. *)

val ev_netfs_crash : int
(** The netfs server crash site fired: epoch bumped, all grants voided,
    grace period opened; arg = the new epoch. *)

val ev_syscall : int
(** A syscall entry minted a fresh {!Profiler} span (stamped only when the
    profiler is armed; the span id rides the stamp's span lane). *)

val ev_rpc_send : int
(** A netfs RPC attempt left the client carrying the current span in the
    wire message; arg = attempt number. *)

val ev_span_link : int
(** Cross-request causal edge: this request's miss/fallback was caused by
    another request (arg = the causing span id) — e.g. a lease-gate miss
    on an inode whose lease a remote client's mutation broke.
    [dump_chrome] renders each link as a flow event pair. *)

val ev_batch_submit : int
(** A vectored submission (§3.9) minted its shared span: one stamp per
    {!Batch.submit} rather than one per op; arg = the number of queued
    ops the span covers. *)

val ev_batch_split : int
(** A batched lockless run observed a seqcount bump (or recorded-stripe
    motion) mid-window and had to re-snapshot before continuing; arg =
    the submission-queue index the split occurred at. *)

val n_events : int
val event_name : int -> string

(** {2 Per-outcome-class latency histograms} *)

val cls_fast : int
val cls_fallback : int
val cls_slowpath : int
val cls_negative : int
val cls_eio : int
val n_classes : int
val class_name : int -> string

val latency : int -> Stats.Lhist.t
val record_latency : int -> int -> unit
(** [record_latency cls ns]: allocation-free histogram store. *)

val histograms_to_string : unit -> string
(** One [class name n … p50 … p90 … p99 … max … mean …] line per latency
    class, plus the [resume_depth] and [lease_age] histograms in the same
    format. *)

(** {2 Resume-depth histogram (§3.5)} *)

val resume_depth : Stats.Lhist.t
(** Components skipped per prefix-resumed miss (depths, not nanoseconds);
    reset by {!reset} alongside the latency histograms. *)

val record_resume_depth : int -> unit
(** Allocation-free histogram store. *)

(** {2 Lease-age histogram (§3.7)} *)

val lease_age : Stats.Lhist.t
(** Virtual-ns age of each lease when the client's lockless gate consulted
    it (live and expired verdicts both record); reset by {!reset}. *)

val record_lease_age : int -> unit
(** Allocation-free histogram store. *)

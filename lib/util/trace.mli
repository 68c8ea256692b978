(** Program-wide tracing: the event ring and request-scoped span ids.

    Both are compiled in unconditionally and disarmed by default, behind
    one switch, {!armed}.  The overhead discipline, proven by
    [test/t_alloc.ml] and the [trace] and [profile] benchmarks:

    - disarmed, every probe-site hook is one load-and-branch and allocates
      nothing — the warm fastpath keeps its zero-allocation guarantee;
    - an armed {!stamp} is still allocation-free: the ring is one flat int
      array with three words per entry, and the timestamp is the stamp's
      own sequence number, derived from the ring cursor.

    The ring and the spans are program-wide because a netfs server and its
    clients' kernels share one timeline: a lease break renders as one flow
    from the mutating client's span to the victim's fallback.  What a
    kernel measures about itself — counters ({!Stats.Counter}), timers
    ({!Timers}) — its dcache owns.  Call {!reset} between
    experiments. *)

val armed : bool ref
(** Arms the ring and span minting together. *)

val reset : unit -> unit
(** Empty the ring and clear the calling domain's current span.  Leaves
    {!armed} alone. *)

(** {2 The event ring} *)

val stamp : int -> int -> unit
(** [stamp ev arg] appends an event, tagged with the current span, when
    armed; disarmed it is a branch.  Never allocates. *)

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
    retained events ([span] is the recording request's span id, 0 when
    none; [ts] is the stamp's sequence number). *)

val ring_to_string : ?limit:int -> unit -> string
(** Header ([armed]/[capacity]/[recorded]/[dropped]) plus the
    newest [limit] (default 64) events, one [seq ts name arg] per line
    (with a [span=N] suffix when the event carries a span). *)

val dump_chrome : unit -> string
(** The retained ring as Chrome [trace_event] JSON, loadable in
    chrome://tracing / Perfetto: one instant per ring entry (span id in
    [args]), an async "b"/"e" bracket per distinct span, and a flow
    "s"/"f" pair per {!ev_span_link} connecting the causing span's lane to
    the link — cross-client lease-break causality reads as one flow. *)

(** {2 Request-scoped spans (§3.8)} *)

val span_enter : unit -> int
(** Mint a fresh span id and install it as the calling domain's current
    span.  Returns 0 when disarmed.  Zero-allocation. *)

val current_span : unit -> int
(** The calling domain's current span id; 0 = no span. *)

type spans
(** One domain's span state. *)

val domain_spans : unit -> spans
(** The calling domain's span state, for a per-domain structure to keep:
    {!stamp_on} then skips the domain-local-storage read (~3 ns) that
    {!stamp} pays for {!current_span}. *)

val stamp_on : spans -> int -> int -> unit
(** [stamp_on sp ev arg] is {!stamp} tagged with [sp]'s current span; [sp]
    must be the calling domain's own.  Never allocates. *)

val stamp_span : int -> int -> int -> unit
(** [stamp_span span ev arg] is {!stamp} tagged with [span], the id a
    {!span_enter} just returned (non-zero, so armed): an entry hook stamps
    its span without reading it back.  Never allocates. *)

val with_span : int -> (unit -> 'a) -> 'a
(** Run under span [id], restoring the caller's span afterwards — the
    server side of a wire message carrying the client's span.  Allocates
    (closure); RPC path only, never on the warm hit. *)

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
(** A syscall entry minted a fresh span (stamped only when armed; the
    span id rides the stamp's span lane). *)

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

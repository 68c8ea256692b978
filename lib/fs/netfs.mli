(** Simulated network file system client/server (paper §4.3, leases §3.7).

    A server wraps any local {!Fs_intf.t}; clients forward every operation
    as an RPC, charging round-trip latency to the shared virtual clock.
    Two consistency protocols are modeled:

    - {!Stateless} (NFS v2/3 close-to-open): the client cannot trust cached
      dentries and must revalidate every component at the server.  The
      client advertises a [revalidate] hook, which the VFS walk calls on
      every cached hit — re-introducing one RPC per component and, exactly
      as the paper observes, nullifying the direct-lookup fastpath (which
      refuses to publish a revalidating file system's dentries).

    - {!Stateful} (AFS / NFSv4.1 delegations): every RPC that returns an
      inode's attributes also grants the client a {e lease} on that inode —
      a promise, expiring after [lease_ttl_ns] of virtual time, that the
      server will break (with an invalidation callback) before letting the
      inode change.  The direct-lookup fastpath serves a warm hit
      locklessly only while the deciding inode's lease is live
      ({!Fs_intf.t.lease_check}); a dead lease forces the slowpath, whose
      [revalidate] re-earns the lease in one getattr round trip.

    Failure semantics (§3.7): leases make the degradation ladder honest.
    Under a {e partition} the client keeps serving still-live leases
    locklessly, degrades to revalidate-per-lookup with retry/backoff as
    they expire, and only then surfaces [EIO] (never cached as absence).
    A server {e crash/restart} voids the grant book and bumps the epoch:
    duplicate-reply-cache entries and client lease tables from the old
    epoch are fenced, and mutations stall for a grace period covering
    [lease_ttl + skew] — so a lease the dead server forgot how to break
    expires before any post-crash mutation can land.  A stale positive can
    therefore be served for at most [lease_ttl + skew] virtual ns after
    the mutation, under any schedule of drops, partitions and crashes. *)

type protocol = Stateless | Stateful

type server

val server :
  ?rpc_latency_ns:int ->
  ?faults:Dcache_util.Fault.t ->
  ?delay_ns:int ->
  ?lease_ttl_ns:int ->
  ?grace_ns:int ->
  ?skew_ns:int ->
  clock:Dcache_util.Vclock.t ->
  Fs_intf.t ->
  server
(** [rpc_latency_ns] defaults to 120_000 (a 120 µs LAN round trip).

    [faults] attaches the link to a fault injector with four sites:
    ["netfs.drop"] loses one request/reply exchange the lossy-link way (an
    idempotent request vanishes; a mutating one executes and loses its
    reply), ["netfs.delay"] adds [delay_ns] (default 2 ms) to a successful
    round trip, ["netfs.partition"] swallows the exchange before the
    server sees it (no execution, either class — and lease-break
    deliveries crossing it are lost too), ["netfs.crash"] restarts the
    server mid-exchange (epoch bump, grants voided, grace opens).

    Lease knobs default to the canonical figures in {!Dcache_vfs.Config}:
    50 ms ttl, 52 ms grace, 2 ms skew (all virtual).
    @raise Invalid_argument if [grace_ns < lease_ttl_ns + skew_ns] — the
    crash-recovery staleness argument needs grace to outlive every
    forgotten lease. *)

val rpc_count : server -> int
(** Total RPCs served, including retransmissions (for tests and
    benchmarks). *)

val reset_rpc_count : server -> unit

type retry_policy = {
  timeout_ns : int;  (** client wait before a retransmission *)
  max_retries : int;  (** retransmissions before giving up with [EIO] *)
  backoff_base_ns : int;  (** first retry delay; doubles per retry *)
  backoff_max_ns : int;  (** cap on the exponential backoff *)
}

val default_retry : retry_policy
(** 1 ms timeout, 4 retries, 0.5 ms backoff doubling up to 8 ms. *)

type rpc_stats = {
  mutable rs_drops : int;  (** exchanges lost to the drop site *)
  mutable rs_delays : int;
  mutable rs_retries : int;  (** client retransmissions *)
  mutable rs_giveups : int;  (** logical ops failed [EIO] after max retries *)
  mutable rs_drc_hits : int;  (** duplicates answered from the reply cache *)
  mutable rs_partitions : int;  (** exchanges swallowed by a partition *)
  mutable rs_crashes : int;  (** server crash/restart events *)
  mutable rs_fenced : int;  (** stale-epoch DRC replies discarded *)
}

val rpc_stats : server -> rpc_stats
val reset_rpc_stats : server -> unit

val fault_sites : server -> Dcache_util.Fault.site list
(** The server's registered fault sites (drop, delay, partition, crash) in
    that order; empty when no injector is attached.  For observability
    surfaces that enumerate per-site arrivals exactly. *)

(** {1 Clients} *)

type client
(** One client's connection state: its lease table, the server epoch it
    last observed, and its invalidation hook. *)

val connect : ?protocol:protocol -> server -> client
(** Register a new client (default {!Stateful}). *)

val client : protocol:protocol -> ?retry:retry_policy -> server -> Fs_intf.t
(** [connect] + {!fs} in one step — the historical constructor, for callers
    that never need the client handle.

    Every lost exchange costs the client its full [timeout_ns] on the
    virtual clock plus an exponentially backed-off pause before the resend.
    Retransmission is idempotency-aware and epoch-fenced: mutating requests
    that executed but lost their reply are answered from a duplicate-reply
    cache instead of re-executing, unless the entry predates a server
    crash, in which case it is fenced and the op re-executes under the new
    epoch.  After [max_retries] resends the operation fails with
    [Error EIO] — which the VFS above treats as "unknown", never caching
    it as absence. *)

val connect_fs :
  ?protocol:protocol -> ?retry:retry_policy -> server -> client * Fs_intf.t
(** [connect] + {!fs}, returning both the handle (for {!set_invalidate},
    {!lease_stats}) and the mountable file system. *)

val set_invalidate : client -> (int -> unit) -> unit
(** Wire the per-client invalidation hook: called with the inode number
    each time the server breaks one of this client's leases (and the
    delivery survives any partition).  The kernel integration points this
    at its dcache eviction. *)

val client_id : client -> int
val client_epoch : client -> int
(** The server epoch this client last observed; lags {!epoch} until its
    next completed exchange. *)

type lease_stats = {
  ls_grants : int;  (** leases granted (or refreshed) to this client *)
  ls_gate_live : int;  (** lockless gate consults answered "live" *)
  ls_gate_expired : int;  (** gate consults that found the lease expired *)
  ls_gate_miss : int;  (** gate consults with no lease on the books *)
  ls_breaks : int;  (** invalidations delivered to this client *)
  ls_fences : int;  (** lease-table flushes on an observed epoch change *)
  ls_live : int;  (** leases currently live (gauge) *)
}

val lease_stats : server -> client -> lease_stats

val clients : server -> client list
(** Registration order. *)

(** {1 Server state} *)

val epoch : server -> int
(** Bumped by every crash/restart; 0 at birth. *)

val in_grace : server -> bool
val lease_ttl_ns : server -> int
val lease_skew_ns : server -> int
val grace_ns : server -> int

val grant_count : server -> int
(** Grants currently on the server's books (gauge), across all clients. *)

val lease_age : server -> Dcache_util.Stats.Lhist.t
(** Virtual-ns age of each lease when a client's lockless gate consulted
    it (live and expired verdicts both record). *)

val bump_generation : server -> int -> unit
(** Mark inode [ino] changed on the server out-of-band {e without}
    breaking leases: a client's next revalidation of it fails.  Prefer
    {!break_callback} for lease-coherent external mutations. *)

val break_callback : server -> int -> unit
(** An external (server-side) mutation of inode [ino]: bumps its
    generation, breaks every client's lease on it (deliveries may be lost
    across a live partition — the ttl bounds that window). *)

open Dcache_types
open Fs_intf
module Fault = Dcache_util.Fault
module Vclock = Dcache_util.Vclock
module Trace = Dcache_util.Trace
module Inttbl = Dcache_util.Inttbl
module Lhist = Dcache_util.Stats.Lhist

type protocol = Stateless | Stateful

(* Per-server fault sites.
   - "netfs.drop": one exchange is lost in the classic lossy-link way — an
     idempotent request vanishes before execution, a mutating one executes
     but its reply vanishes (the DRC case).
   - "netfs.delay": adds [delay_ns] to an otherwise successful round trip.
   - "netfs.partition": the link is down — the exchange is lost {e before}
     the server sees it, for both request classes.  Partition differs from
     drop precisely in that a partitioned mutation never half-executes, and
     in that lease-break callbacks crossing the partition are lost too.
   - "netfs.crash": the server dies and restarts between the request being
     sent and any reply arriving: epoch bumps, every lease grant is voided,
     a grace period opens, and the in-flight exchange is lost. *)
type faults = {
  drop : Fault.site;
  delay : Fault.site;
  partition : Fault.site;
  crash : Fault.site;
  delay_ns : int64;
}

type rpc_stats = {
  mutable rs_drops : int;  (** exchanges lost to the drop site *)
  mutable rs_delays : int;
  mutable rs_retries : int;  (** client retransmissions *)
  mutable rs_giveups : int;  (** logical ops failed EIO after max retries *)
  mutable rs_drc_hits : int;  (** duplicates answered from the reply cache *)
  mutable rs_partitions : int;  (** exchanges swallowed by a partition *)
  mutable rs_crashes : int;  (** server crash/restart events *)
  mutable rs_fenced : int;  (** pre-crash DRC replies fenced by the epoch *)
}

(* One client handle: its lease table, the server epoch it last observed,
   and the invalidation hook the kernel integration wires to its dcache.
   [leases] maps inode -> client-side expiry (virtual ns, plain int): the
   lockless gate is an Inttbl.find + integer compare, no allocation. *)
type client = {
  c_id : int;
  c_protocol : protocol;
  mutable c_epoch_seen : int;
  c_leases : int Inttbl.t;
  c_seen : int Inttbl.t;  (* inode -> generation last observed *)
  (* §3.8 causal tracing: inode -> span of the remote request whose
     mutation broke our lease on it, recorded at delivery and consumed by
     the lease gate's miss branch to stamp the cross-client link. *)
  c_break_spans : int Inttbl.t;
  mutable c_on_invalidate : int -> unit;
  (* per-client lease statistics; mutable ints so the gate stays 0-alloc *)
  mutable c_grants : int;
  mutable c_gate_live : int;
  mutable c_gate_expired : int;
  mutable c_gate_miss : int;
  mutable c_breaks : int;  (* invalidations delivered to this client *)
  mutable c_fences : int;  (* lease-table flushes on an epoch change *)
}

type server = {
  backing : Fs_intf.t;
  clock : Dcache_util.Vclock.t;
  rpc_latency : int64;
  generations : int Inttbl.t;  (* per-inode change generation *)
  mutable rpcs : int;
  faults : faults option;
  stats : rpc_stats;
  (* --- lease protocol state (§3.7) --- *)
  lease_ttl : int;
  lease_skew : int;
  grace : int;
  mutable epoch : int;  (* bumped by every crash/restart *)
  mutable grace_until : int;  (* virtual ns; mutations stall until then *)
  grants : int Inttbl.t Inttbl.t;
      (* inode -> (client id -> server-side expiry).  The server's book of
         promises: a mutation must break every entry here (or be unable to,
         across a partition — which is why grants also carry an expiry). *)
  lease_age : Lhist.t;
      (* virtual-ns age of each lease when a client's lockless gate
         consulted it (live and expired verdicts both record) *)
  mutable clients : client list;  (* registration order, for callbacks *)
  mutable next_client : int;
}

let server ?(rpc_latency_ns = 120_000) ?faults ?(delay_ns = 2_000_000)
    ?(lease_ttl_ns = 50_000_000) ?(grace_ns = 52_000_000) ?(skew_ns = 2_000_000)
    ~clock backing =
  if grace_ns < lease_ttl_ns + skew_ns then
    invalid_arg "Netfs.server: grace_ns must cover lease_ttl_ns + skew_ns";
  let faults =
    Option.map
      (fun injector ->
        {
          drop = Fault.site injector "netfs.drop";
          delay = Fault.site injector "netfs.delay";
          partition = Fault.site injector "netfs.partition";
          crash = Fault.site injector "netfs.crash";
          delay_ns = Int64.of_int delay_ns;
        })
      faults
  in
  {
    backing;
    clock;
    rpc_latency = Int64.of_int rpc_latency_ns;
    generations = Inttbl.create 256;
    rpcs = 0;
    faults;
    stats =
      {
        rs_drops = 0;
        rs_delays = 0;
        rs_retries = 0;
        rs_giveups = 0;
        rs_drc_hits = 0;
        rs_partitions = 0;
        rs_crashes = 0;
        rs_fenced = 0;
      };
    lease_ttl = lease_ttl_ns;
    lease_skew = skew_ns;
    grace = grace_ns;
    epoch = 0;
    grace_until = 0;
    grants = Inttbl.create 256;
    lease_age = Lhist.create ();
    clients = [];
    next_client = 0;
  }

let rpc_count t = t.rpcs
let reset_rpc_count t = t.rpcs <- 0
let rpc_stats t = t.stats

let reset_rpc_stats t =
  let s = t.stats in
  s.rs_drops <- 0;
  s.rs_delays <- 0;
  s.rs_retries <- 0;
  s.rs_giveups <- 0;
  s.rs_drc_hits <- 0;
  s.rs_partitions <- 0;
  s.rs_crashes <- 0;
  s.rs_fenced <- 0

let epoch t = t.epoch
let lease_ttl_ns t = t.lease_ttl
let lease_skew_ns t = t.lease_skew
let grace_ns t = t.grace

let now_ns t = Int64.to_int (Vclock.elapsed_ns t.clock)
let in_grace t = now_ns t < t.grace_until

let fault_sites t =
  match t.faults with
  | None -> []
  | Some fl -> [ fl.drop; fl.delay; fl.partition; fl.crash ]

let grant_count t = Inttbl.fold (fun _ holders acc -> acc + Inttbl.length holders) t.grants 0
let lease_age t = t.lease_age

let generation t ino = Option.value (Inttbl.find_opt t.generations ino) ~default:0

let bump_generation t ino = Inttbl.replace t.generations ino (generation t ino + 1)

(* --- the lease book --- *)

(* Grant (or refresh) a lease on [ino] to [c].  The client trusts it for
   [lease_ttl]; the server keeps it on the books for [lease_ttl + skew], so
   a client clock lagging by up to [skew] still goes stale before the
   server forgets the promise.  No grants during grace: a restarting
   server's book is empty and must stay empty until every promise it might
   have forgotten has expired. *)
let grant t c ino =
  if c.c_protocol = Stateful && not (in_grace t) then begin
    let now = now_ns t in
    Inttbl.replace c.c_leases ino (now + t.lease_ttl);
    let holders =
      match Inttbl.find_opt t.grants ino with
      | Some h -> h
      | None ->
        let h = Inttbl.create 4 in
        Inttbl.add t.grants ino h;
        h
    in
    Inttbl.replace holders c.c_id (now + t.lease_ttl + t.lease_skew);
    c.c_grants <- c.c_grants + 1;
    Trace.stamp Trace.ev_lease_grant ino
  end

(* Break every grant on [ino], delivering an invalidation callback to each
   holder except [except] (the mutating client already knows).  A delivery
   crossing a live partition is lost — the holder keeps its (expiring)
   lease, which is exactly the window the ttl bounds.  Expired grants are
   dropped without a delivery attempt: the holder's own gate already
   refuses them.  Deliveries go out in client registration order, so which
   one a partition swallows depends on the fault schedule alone, never on
   how a hash table orders client ids. *)
let break_leases t ~except ino =
  match Inttbl.find_opt t.grants ino with
  | None -> ()
  | Some holders ->
    let now = now_ns t in
    Inttbl.remove t.grants ino;
    List.iter
      (fun c ->
        match Inttbl.find holders c.c_id with
        | expiry when c.c_id <> except && expiry >= now ->
          Trace.stamp Trace.ev_lease_break ino;
          let delivered =
            match t.faults with
            | Some fl when Fault.fire fl.partition ->
              t.stats.rs_partitions <- t.stats.rs_partitions + 1;
              Trace.stamp Trace.ev_rpc_partition ino;
              false
            | _ -> true
          in
          if delivered then begin
            Inttbl.remove c.c_leases ino;
            (* §3.8: remember which request broke us {e before} delivering
               the invalidation — the callback re-enters the holder's
               kernel and may replace the domain's current span.  The
               holder's next gate miss on [ino] consumes this and stamps
               the cross-client link. *)
            if !Trace.armed then Inttbl.replace c.c_break_spans ino (Trace.current_span ());
            c.c_breaks <- c.c_breaks + 1;
            c.c_on_invalidate ino
          end
        | _ -> ()
        | exception Not_found -> ())
      t.clients

(* Seed-deterministic server crash/restart: the epoch fences everything the
   old incarnation promised or half-answered, the grant book is wiped (a
   real server's lease state is volatile), and a grace period opens during
   which mutations stall and no new leases are granted.  Because
   [grace >= ttl + skew], every pre-crash client lease — which the server
   can no longer break — expires before the first post-crash mutation can
   execute, making the staleness bound structural rather than best-effort. *)
let restart t =
  t.epoch <- t.epoch + 1;
  Inttbl.reset t.grants;
  t.grace_until <- now_ns t + t.grace;
  t.stats.rs_crashes <- t.stats.rs_crashes + 1;
  Trace.stamp Trace.ev_netfs_crash t.epoch

let break_callback t ino =
  bump_generation t ino;
  break_leases t ~except:(-1) ino

type retry_policy = {
  timeout_ns : int;  (** how long the client waits before retransmitting *)
  max_retries : int;  (** retransmissions before giving up with [EIO] *)
  backoff_base_ns : int;  (** first retry delay; doubles per retry *)
  backoff_max_ns : int;  (** cap on the exponential backoff *)
}

let default_retry =
  { timeout_ns = 1_000_000; max_retries = 4; backoff_base_ns = 500_000; backoff_max_ns = 8_000_000 }

(* One logical RPC: at-least-once retransmission with idempotency-aware
   duplicate suppression and epoch fencing.

   Exchange loss comes in three flavours, checked in severity order:

   - crash ("netfs.crash"): the server restarts mid-exchange.  The reply —
     and for a mutating op possibly the execution — from the old
     incarnation is moot; the retransmission reaches the new epoch.
   - partition ("netfs.partition"): the link is down, the request is lost
     before the server sees it — no execution for either request class.
   - drop ("netfs.drop"): the classic lossy link.  An idempotent request is
     lost; a mutating one executes and loses its reply, the case the
     duplicate-reply cache exists for.

   [reply = Some (epoch, r)] below {e is} the DRC entry for the op in
   flight, now epoch-stamped: a retransmission that finds the entry's
   epoch current is answered from it ([rs_drc_hits]) — without that, a
   retried [create] would bounce with [EEXIST] and a retried [rename]
   could apply twice.  An entry from a {e previous} epoch is fenced
   ([rs_fenced]): the restarted server has no idea whether that reply
   described state that survived the crash, so the op re-executes under
   the current epoch.  Re-execution of a mutation during the grace period
   stalls (the clock is charged up to [grace_until]) — mutations may not
   land while forgotten pre-crash leases could still be live.

   Every lost exchange burns the full client timeout on the virtual clock,
   then an exponentially backed-off pause before the resend; after
   [max_retries] resends the op fails with [EIO] — the cache above must
   treat that as "unknown", never as "absent". *)
let rpc t policy ~idempotent f =
  (* §3.8: the wire message carries the issuing request's span, and the
     server-side execution runs under it — so client RPC and server work
     (including the lease breaks a mutation triggers) share one lane in
     the trace.  Captured once here: a DRC-fenced re-execution on a later
     attempt still belongs to the original request. *)
  let wire_span = Trace.current_span () in
  let execute () =
    let run () =
      if not idempotent then begin
        let now = now_ns t in
        if now < t.grace_until then
          Vclock.charge t.clock (Int64.of_int (t.grace_until - now))
      end;
      (t.epoch, f t.backing)
    in
    if wire_span = 0 then run () else Trace.with_span wire_span run
  in
  let rec go attempt ~reply =
    t.rpcs <- t.rpcs + 1;
    Trace.stamp Trace.ev_rpc_send attempt;
    let crashed = match t.faults with Some fl -> Fault.fire fl.crash | None -> false in
    if crashed then restart t;
    let partitioned =
      match t.faults with Some fl -> Fault.fire fl.partition | None -> false
    in
    if partitioned then begin
      t.stats.rs_partitions <- t.stats.rs_partitions + 1;
      Trace.stamp Trace.ev_rpc_partition attempt
    end;
    let dropped =
      (not crashed) && (not partitioned)
      && match t.faults with Some fl -> Fault.fire fl.drop | None -> false
    in
    let lost = crashed || partitioned || dropped in
    (* Under crash or partition the request never reaches a live server;
       under drop, an idempotent request is lost but a mutating one
       executes (reply lost). *)
    let reply =
      if crashed || partitioned || (dropped && idempotent) then reply
      else begin
        match reply with
        | Some (e, _) when e = t.epoch ->
          t.stats.rs_drc_hits <- t.stats.rs_drc_hits + 1;
          Trace.stamp Trace.ev_rpc_drc_hit attempt;
          reply
        | Some (e, _) ->
          t.stats.rs_fenced <- t.stats.rs_fenced + 1;
          Trace.stamp Trace.ev_lease_fence e;
          Some (execute ())
        | None -> Some (execute ())
      end
    in
    if lost then begin
      if dropped then begin
        t.stats.rs_drops <- t.stats.rs_drops + 1;
        Trace.stamp Trace.ev_rpc_drop attempt
      end;
      Vclock.charge t.clock (Int64.of_int policy.timeout_ns);
      if attempt >= policy.max_retries then begin
        t.stats.rs_giveups <- t.stats.rs_giveups + 1;
        Trace.stamp Trace.ev_rpc_giveup attempt;
        Errno.to_error Errno.EIO
      end
      else begin
        t.stats.rs_retries <- t.stats.rs_retries + 1;
        Trace.stamp Trace.ev_rpc_retry attempt;
        let backoff = Int.min policy.backoff_max_ns (policy.backoff_base_ns lsl attempt) in
        Vclock.charge t.clock (Int64.of_int backoff);
        go (attempt + 1) ~reply
      end
    end
    else begin
      (match t.faults with
      | Some fl when Fault.fire fl.delay ->
        t.stats.rs_delays <- t.stats.rs_delays + 1;
        Vclock.charge t.clock fl.delay_ns
      | _ -> ());
      Vclock.charge t.clock t.rpc_latency;
      match reply with Some (_, r) -> r | None -> assert false
    end
  in
  go 0 ~reply:None

(* --- client handles --- *)

let connect ?(protocol = Stateful) server =
  let c =
    {
      c_id = server.next_client;
      c_protocol = protocol;
      c_epoch_seen = server.epoch;
      c_leases = Inttbl.create 256;
      c_seen = Inttbl.create 256;
      c_break_spans = Inttbl.create 16;
      c_on_invalidate = (fun _ -> ());
      c_grants = 0;
      c_gate_live = 0;
      c_gate_expired = 0;
      c_gate_miss = 0;
      c_breaks = 0;
      c_fences = 0;
    }
  in
  server.next_client <- server.next_client + 1;
  server.clients <- server.clients @ [ c ];
  c

let set_invalidate c hook = c.c_on_invalidate <- hook

(* §3.8: the victim end of the cross-client causal edge.  A gate miss on
   an inode whose lease a remote mutation broke consumes the recorded
   breaker span and stamps the link (arg = breaker).  Inttbl.find/remove
   allocate nothing, and the miss branch has already left the warm path. *)
let note_break_span c ino =
  if !Trace.armed then begin
    match Inttbl.find c.c_break_spans ino with
    | breaker ->
      Inttbl.remove c.c_break_spans ino;
      Trace.stamp Trace.ev_span_link breaker
    | exception Not_found -> ()
  end
let client_id c = c.c_id
let client_epoch c = c.c_epoch_seen

type lease_stats = {
  ls_grants : int;
  ls_gate_live : int;
  ls_gate_expired : int;
  ls_gate_miss : int;
  ls_breaks : int;
  ls_fences : int;
  ls_live : int;
}

let lease_stats server c =
  let now = now_ns server in
  let live = Inttbl.fold (fun _ e acc -> if e >= now then acc + 1 else acc) c.c_leases 0 in
  {
    ls_grants = c.c_grants;
    ls_gate_live = c.c_gate_live;
    ls_gate_expired = c.c_gate_expired;
    ls_gate_miss = c.c_gate_miss;
    ls_breaks = c.c_breaks;
    ls_fences = c.c_fences;
    ls_live = live;
  }

let clients t = t.clients

(* Client-side epoch observation: every exchange that completes tells the
   client which server incarnation answered.  A new epoch means every local
   lease was promised by a dead server — flush them all (epoch fencing on
   the client side), then resume acquiring leases from the new one. *)
let observe_epoch server c =
  if c.c_epoch_seen <> server.epoch then begin
    Trace.stamp Trace.ev_lease_fence c.c_epoch_seen;
    c.c_fences <- c.c_fences + 1;
    Inttbl.reset c.c_leases;
    c.c_epoch_seen <- server.epoch
  end

let fs server c retry =
  let backing = server.backing in
  let protocol = c.c_protocol in
  let note_attr (attr : Attr.t) =
    Inttbl.replace c.c_seen attr.Attr.ino (generation server attr.Attr.ino);
    grant server c attr.Attr.ino;
    attr
  in
  (* A mutation by this client: bump the server generation, break everyone
     else's leases (deliveries may be lost across a partition — their ttl
     covers that), and re-earn our own lease immediately: we just heard
     from the server, so the promise is fresh by construction. *)
  let mutated ino =
    bump_generation server ino;
    break_leases server ~except:c.c_id ino;
    Inttbl.replace c.c_seen ino (generation server ino);
    grant server c ino
  in
  let rpc_ policy ~idempotent f =
    let r = rpc server policy ~idempotent f in
    observe_epoch server c;
    r
  in
  (* The slowpath revalidation ladder (§3.7).  A live local lease answers
     with no RPC at all; otherwise one getattr round trip checks the
     generation and re-earns the lease.  Under a partition the RPC itself
     degrades through retry/backoff to EIO — served to the caller as
     "unknown", never cached as absence. *)
  let revalidate ino =
    let live =
      protocol = Stateful
      &&
      match Inttbl.find c.c_leases ino with
      | expiry -> now_ns server <= expiry
      | exception Not_found -> false
    in
    if live then Ok true
    else
      rpc_ retry ~idempotent:true (fun backing ->
          match backing.getattr ino with
          | Error Errno.EIO -> Ok false (* the inode is gone on the server *)
          | Error _ as e -> Result.map (fun _ -> false) e
          | Ok _ ->
            let current = generation server ino in
            let fresh =
              match Inttbl.find_opt c.c_seen ino with
              | Some g -> g = current
              | None -> false
            in
            Inttbl.replace c.c_seen ino current;
            if fresh then grant server c ino;
            Ok fresh)
  in
  (* The lockless lease gate (§3.7): consulted by the fastpath at its
     commit points.  One Inttbl.find, one virtual-clock
     read, integer compares and plain int-field stores — no allocation, so
     a warm live-lease hit keeps the 0-words/0-locks guarantee.  The
     Trace stamps are load-and-branch when disarmed. *)
  let lease_check ino =
    match Inttbl.find c.c_leases ino with
    | expiry ->
      let now = Int64.to_int (Vclock.elapsed_ns server.clock) in
      Lhist.record server.lease_age (server.lease_ttl - (expiry - now));
      if now <= expiry then begin
        c.c_gate_live <- c.c_gate_live + 1;
        true
      end
      else begin
        c.c_gate_expired <- c.c_gate_expired + 1;
        Trace.stamp Trace.ev_lease_expire ino;
        false
      end
    | exception Not_found ->
      c.c_gate_miss <- c.c_gate_miss + 1;
      note_break_span c ino;
      false
  in
  {
    fs_type = (match protocol with Stateless -> "netfs-stateless" | Stateful -> "netfs-stateful");
    root_ino = backing.root_ino;
    (* A stateless client cannot trust cached absence either: negative
       dentries are disabled so every miss re-asks the server. *)
    negative_dentries = (protocol = Stateful);
    lookup =
      (fun dir name -> rpc_ retry ~idempotent:true (fun b -> Result.map note_attr (b.lookup dir name)));
    getattr = (fun ino -> rpc_ retry ~idempotent:true (fun b -> Result.map note_attr (b.getattr ino)));
    setattr =
      (fun ino changes ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.setattr ino changes in
            mutated ino;
            Result.map note_attr result));
    readdir = (fun dir -> rpc_ retry ~idempotent:true (fun b -> b.readdir dir));
    create =
      (fun dir name kind mode ~uid ~gid ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.create dir name kind mode ~uid ~gid in
            mutated dir;
            Result.map note_attr result));
    symlink =
      (fun dir name ~target ~uid ~gid ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.symlink dir name ~target ~uid ~gid in
            mutated dir;
            Result.map note_attr result));
    link =
      (fun dir name ino ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.link dir name ino in
            mutated dir;
            mutated ino;
            Result.map note_attr result));
    unlink =
      (fun dir name ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.unlink dir name in
            mutated dir;
            result));
    rmdir =
      (fun dir name ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.rmdir dir name in
            mutated dir;
            result));
    rename =
      (fun od on nd nn ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.rename od on nd nn in
            mutated od;
            mutated nd;
            result));
    readlink = (fun ino -> rpc_ retry ~idempotent:true (fun b -> b.readlink ino));
    read = (fun ino ~off ~len -> rpc_ retry ~idempotent:true (fun b -> b.read ino ~off ~len));
    write =
      (fun ino ~off data ->
        rpc_ retry ~idempotent:false (fun b ->
            let result = b.write ino ~off data in
            mutated ino;
            result));
    sync = (fun () -> backing.sync ());
    pin_inode = backing.pin_inode;
    unpin_inode = backing.unpin_inode;
    (* Stateless: revalidate every cached hit at the server, never publish
       for direct lookup.  Stateful: the same hook is the lease-recovery
       rung — a live lease short-circuits it with no RPC — and the gate
       below keeps the fastpath honest, so publication stays on. *)
    revalidate = Some revalidate;
    lease_check = (match protocol with Stateful -> Some lease_check | Stateless -> None);
  }

let client ~protocol ?(retry = default_retry) server =
  fs server (connect ~protocol server) retry

let connect_fs ?(protocol = Stateful) ?(retry = default_retry) server =
  let c = connect ~protocol server in
  (c, fs server c retry)

(* Rounds, the composite sequence, the virtual open loop, and every metric.

   A round builds a fresh rig and corpus, runs a warm-up pass of the same
   generator (set-up, timed as setup_s), then issues the workload's request
   sequence, timing each request from outside: wall ns around its Syscalls
   calls plus the virtual device and fs-overhead ns charged inside it (the
   accounting Bench's env_latency_ns uses).  The seed fixes the sequence,
   so every round of a run issues the same requests.

   A run repeats rounds until its time is spent, at most [max_rounds].  The
   shared host slows for stretches of a fraction of a second to many
   minutes as its neighbours' load comes and goes (rounds of one run differ
   by up to 60% in throughput), and that only ever makes requests slower.
   So the run cuts the sequence into [stretches] equal parts and keeps each
   part from the round in which it took the least time; every timing metric
   comes from that composite sequence.  A part of 20 to 40 ms needs one
   quiet moment among the rounds, where the best whole round needs a quiet
   second.  Each part holds six or more minor collections, so keeping its
   fastest copy drops little of the GC cost.  setup_s and live_heap_mb are
   medians over rounds.

   The gated tail percentile is p90.  p99 is on the per-layer list: on
   tree-wide it sits in the memory-bound listings of 640-child directories,
   which slow down most when the host is loaded (README.md). *)

module A = Bigarray.Array1
module Kernel = Dcache_syscalls.Kernel
module P = Dcache_syscalls.Proc
module Rwlock = Dcache_util.Rwlock
module Dcache = Dcache_vfs.Dcache
module Pagecache = Dcache_storage.Pagecache
module Blockdev = Dcache_storage.Blockdev
module Fastpath = Dcache_core.Fastpath
module Signature = Dcache_sig.Signature
module Prng = Dcache_util.Prng
module Stats = Dcache_util.Stats
module Vclock = Dcache_util.Vclock

let now = Tracer.now

(* Off-heap, so the samples stay out of live_heap_mb. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t

let median l = Stats.median (Array.of_list l)

(* --- the virtual open loop --- *)

(* Lindley recursion: a FIFO single server fed by Poisson arrivals on a
   virtual timeline, serving each request in its measured service time
   (the model of Runner.run_open_loop).  Each request is timed from when it
   was due, so a stall delays everything queued behind it.  The generator
   never runs late: arrivals are computed, not sent, so its lag is zero by
   construction.  [gaps] holds Exp(1) draws scaled by 1/rate, so every rate
   sees the same arrival pattern and sojourns grow monotonically with it. *)
let sojourns ~(service : ints) ~n ~(gaps : floats) ~rate ~(out : floats) =
  let scale = 1e9 /. rate in
  let arrival = ref 0. and free = ref 0. in
  for i = 0 to n - 1 do
    arrival := !arrival +. (A.unsafe_get gaps i *. scale);
    free := Float.max !arrival !free +. float_of_int (A.unsafe_get service i);
    A.unsafe_set out i (!free -. !arrival)
  done

(* Within the SLO and no growing backlog: at most a tenth of all sojourns
   exceed the limit, and at most half of the last tenth's do.  A growing
   backlog puts the whole end of the run over the limit; a single stall
   queues far fewer requests than half a tenth. *)
let sustainable ~slo_ns ~n ~(out : floats) =
  let cut = n - (n / 10) in
  let over = ref 0 and tail_over = ref 0 in
  for i = 0 to n - 1 do
    if A.unsafe_get out i > slo_ns then begin
      incr over;
      if i >= cut then incr tail_over
    end
  done;
  10 * !over <= n && 2 * !tail_over <= n - cut

(* The highest sustainable rate, by bisection between zero and beyond
   saturation. *)
let slo_rate ~slo_ns ~service ~n ~gaps ~out ~busy_ns =
  let ok rate =
    sojourns ~service ~n ~gaps ~rate ~out;
    sustainable ~slo_ns ~n ~out
  in
  let hi = ref (2e9 *. float_of_int n /. float_of_int (max 1 busy_ns)) in
  let doublings = ref 0 in
  while ok !hi && !doublings < 20 do
    hi := !hi *. 2.;
    incr doublings
  done;
  let lo = ref 0. in
  for _ = 1 to 40 do
    let mid = (!lo +. !hi) /. 2. in
    if ok mid then lo := mid else hi := mid
  done;
  !lo

(* --- the composite sequence --- *)

let stretches = 25

(* For each part of the sequence, the fewest ns any round took over it, and
   that round's service times. *)
type composite = { fastest : ints; part_ns : int array }

let composite n = { fastest = A.create Bigarray.int Bigarray.c_layout n; part_ns = Array.make stretches max_int }

let keep_fastest c ~n (service : ints) =
  for k = 0 to stretches - 1 do
    let lo = k * n / stretches and hi = (k + 1) * n / stretches in
    let sum = ref 0 in
    for i = lo to hi - 1 do
      sum := !sum + A.unsafe_get service i
    done;
    if !sum < c.part_ns.(k) then begin
      c.part_ns.(k) <- !sum;
      A.blit (A.sub service lo (hi - lo)) (A.sub c.fastest lo (hi - lo))
    end
  done

let total_ns c = Array.fold_left ( + ) 0 c.part_ns

type bufs = { service : ints; gaps : floats; out : floats }

(* Every timing metric, from one composite sequence. *)
let timing (w : Work.t) ~n bufs c =
  let service = c.fastest and gaps = bufs.gaps and out = bufs.out in
  let busy_ns = total_ns c in
  let slo = slo_rate ~slo_ns:(w.slo_us *. 1e3) ~service ~n ~gaps ~out ~busy_ns in
  sojourns ~service ~n ~gaps ~rate:w.rate ~out;
  let req = Array.init n (fun i -> float_of_int (A.unsafe_get service i) /. 1e3) in
  let soj = Array.init n (fun i -> A.unsafe_get out i /. 1e3) in
  [
    ("req_per_s", float_of_int n /. (float_of_int busy_ns /. 1e9));
    ("req_p50_us", Stats.percentile req 50.);
    ("req_p90_us", Stats.percentile req 90.);
    ("req_p99_us", Stats.percentile req 99.);
    ("slo_rate_req_per_s", slo);
    ("sojourn_p90_us", Stats.percentile soj 90.);
    ("sojourn_p99_us", Stats.percentile soj 99.);
  ]

(* --- layer probes, run after the timed phase --- *)

(* Median ns per call of [f] over 4096 of the workload's read paths. *)
let probe_ns prng paths f =
  let sample = Array.init 4096 (fun _ -> paths.(Prng.int prng (Array.length paths))) in
  Array.iter f sample;
  median
    (List.init 7 (fun _ ->
         let t0 = now () in
         Array.iter f sample;
         float_of_int (now () - t0) /. 4096.))

(* --- one round --- *)

type round = {
  requests : int;  (** attempted, warm-up included *)
  failed : int;
  setup_s : float;
  live_heap_mb : float;
  layers : (string * float) list;  (** traced rounds only *)
}

let counter snap key = float_of_int (try List.assoc key snap with Not_found -> 0)

let stripe_acquisitions (rig : Rig.t) =
  match Dcache.stripes (Kernel.dcache rig.kernel) with
  | Some tab -> fst (Dcache_util.Locktab.totals tab)
  | None -> 0

let vclock c = Int64.to_int (Vclock.elapsed_ns c)

(* Fills [bufs.service] with the service time of each timed request. *)
let round (w : Work.t) ~seed ~n ~warmup ~traced bufs =
  let service = bufs.service in
  Gc.full_major ();
  let t_setup = now () in
  let rig = Rig.create () in
  let g = w.build rig ~seed in
  let failed = ref 0 in
  let issue () =
    match g.exec () with
    | true -> ()
    | false -> incr failed
    | exception _ ->
      Tracer.abort ();
      incr failed
  in
  for _ = 1 to warmup do
    g.next ();
    issue ()
  done;
  let setup_s = float_of_int (now () - t_setup) /. 1e9 in
  Kernel.reset_stats rig.kernel;
  Rwlock.reset_acquisition_counts ();
  Pagecache.reset_stats rig.pagecache;
  Blockdev.reset_stats rig.device;
  let stripes0 = stripe_acquisitions rig in
  let dev0 = vclock rig.dev_clock and fs0 = vclock rig.fs_clock in
  Tracer.reset ();
  Tracer.traced := traced;
  let wall = ref 0 in
  for i = 0 to n - 1 do
    g.next ();
    let v0 = Rig.virtual_ns rig in
    let t0 = now () in
    if traced then Tracer.req_open t0;
    issue ();
    let t1 = now () in
    if traced then Tracer.req_close t1;
    A.unsafe_set service i (t1 - t0 + Rig.virtual_ns rig - v0);
    wall := !wall + (t1 - t0)
  done;
  Tracer.traced := false;
  let snap = Kernel.stats_snapshot rig.kernel in
  let rw_reads, rw_writes = Rwlock.acquisition_counts () in
  let stripes = stripe_acquisitions rig - stripes0 in
  let dev_ns = vclock rig.dev_clock - dev0 and fs_ns = vclock rig.fs_clock - fs0 in
  Gc.full_major ();
  let live_heap_mb = float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6 in
  let fi = float_of_int in
  let layers =
    if not traced then []
    else begin
      let c = counter snap in
      let per x = x /. fi (max 1 !Tracer.ops) in
      let ratio ~empty a b = if b = 0. then empty else a /. b in
      let hits = c "fastpath_hit" and fallbacks = c "fastpath_fallback" in
      let from_cache = c "readdir_scratch_warm" +. c "readdir_from_cache" in
      let sharded =
        List.fold_left
          (fun acc k -> acc +. c ("sharded_" ^ k))
          0. [ "create"; "rename"; "unlink"; "mkdir"; "rmdir" ]
      in
      let pc_hits = fi (Pagecache.hits rig.pagecache) and pc_misses = fi (Pagecache.misses rig.pagecache) in
      let fp = Kernel.fastpath rig.kernel in
      let key = Fastpath.key fp in
      let ctx = P.walk_ctx rig.proc in
      let within _ _ = Ok () in
      let prng = Prng.create (seed + 1) in
      let paths = g.read_paths () in
      let sig_ns = probe_ns prng paths (fun p -> ignore (Sys.opaque_identity (Signature.hash_string key p))) in
      let core_ns = probe_ns prng paths (fun p -> ignore (Fastpath.lookup_into fp ctx p ~within)) in
      [
        ("sig.hash_ns", sig_ns);
        ("core.probe_ns", core_ns);
        ("core.fastpath_hit_ratio", ratio ~empty:1. hits (hits +. fallbacks));
        ("core.fallbacks_per_op", per fallbacks);
        ("core.prefix_resumes_per_op", per (c "fastpath_prefix_resume"));
        ("core.populated_per_op", per (c "fastpath_populated"));
        ("vfs.slowpath_per_op", per (c "walk_slowpath"));
        ("vfs.components_per_op", per (c "walk_components"));
        ("vfs.dcache_hit_ratio", ratio ~empty:1. (c "dcache_hit") (c "dcache_hit" +. c "dcache_miss"));
        ( "vfs.negative_hits_per_op",
          per (c "walk_negative_hit" +. c "fastpath_negative_hit" +. c "complete_dir_negative") );
        ( "vfs.invalidations_per_op",
          per (c "invalidate_structure_dentries" +. c "invalidate_permission_dentries") );
        ("vfs.neg_resident", fi (Array.fold_left ( + ) 0 (Dcache.neg_occupancy (Kernel.dcache rig.kernel))));
        ("syscalls.self_us_per_req", fi (!Tracer.sys_ns - !Tracer.fs_real_ns) /. fi n /. 1e3);
        ("syscalls.readdir_cache_ratio", ratio ~empty:1. from_cache (from_cache +. c "readdir_from_fs"));
        ("syscalls.sharded_ratio", ratio ~empty:0. sharded (fi !Tracer.mutating_ops));
        ( "syscalls.create_probe_skip_ratio",
          ratio ~empty:0. (c "create_neg_shortcut") (fi !Tracer.creating_opens) );
        ("locks.global_write_per_op", per (fi rw_writes));
        ("locks.rwlock_per_op", per (fi (rw_reads + rw_writes)));
        ("locks.stripe_per_op", per (fi stripes));
        ("fs.calls_per_op", per (fi !Tracer.fs_calls));
        ("fs.lookups_per_op", per (fi !Tracer.fs_lookups));
        ("fs.readdirs_per_op", per (fi !Tracer.fs_readdirs));
        ("fs.mutations_per_op", per (fi !Tracer.fs_mutations));
        ("fs.real_us_per_op", per (fi !Tracer.fs_real_ns) /. 1e3);
        ("fs.virt_us_per_op", per (fi fs_ns) /. 1e3);
        ("storage.pagecache_hit_ratio", ratio ~empty:1. pc_hits (pc_hits +. pc_misses));
        ("storage.dev_reads_per_op", per (fi (Blockdev.reads rig.device)));
        ("storage.dev_writes_per_op", per (fi (Blockdev.writes rig.device)));
        ("storage.dev_virt_us_per_op", per (fi dev_ns) /. 1e3);
        (* Request time outside every syscall span: the benchmark's own
           code inside the timer.  Measured apart from the spans it is
           compared with, unlike a sum of self times, which always closes. *)
        ("trace.harness_pct", fi (!wall - !Tracer.sys_ns) /. fi !wall *. 100.);
      ]
    end
  in
  ignore (Sys.opaque_identity (rig, g));
  { requests = warmup + n; failed = !failed; setup_s; live_heap_mb; layers }

(* --- a run --- *)

type result = { attempted : int; failures : int; values : (string * float) list }

(* Untraced: rounds until [seconds] is spent, at least 3 and at most
   [max_rounds].  The request counts in Work.all are sized so the seed
   commit reaches the cap in about 20 of 30 seconds, so the parent and a
   change up to 1.5x slower build their composites from the same number of
   rounds.  Traced: pairs of an untraced and a traced round, at least one
   pair; the layer metrics are medians over the traced rounds, and the
   tracing overhead compares the two halves' composites.  [quick] runs one
   round (one pair) at a fortieth of the requests. *)
let max_rounds = 15

let run (w : Work.t) ~seed ~seconds ~trace ~quick ~log =
  let n = if quick then w.requests / 40 else w.requests in
  let warmup = if quick then w.warmup / 40 else w.warmup in
  let mk kind = A.create kind Bigarray.c_layout n in
  let bufs = { service = mk Bigarray.int; gaps = mk Bigarray.float64; out = mk Bigarray.float64 } in
  let prng = Prng.create (seed lxor 0x0b5e55ed) in
  for i = 0 to n - 1 do
    A.unsafe_set bufs.gaps i (-.Float.log (1. -. Prng.float prng 1.))
  done;
  let untraced_c = composite n and traced_c = composite n in
  let start = now () in
  let elapsed () = float_of_int (now () - start) /. 1e9 in
  let min_rounds = if quick || trace then 1 else 3 in
  let max_rounds = if quick then 1 else max_rounds in
  let one ~traced k =
    let r = round w ~seed ~n ~warmup ~traced bufs in
    keep_fastest (if traced then traced_c else untraced_c) ~n bufs.service;
    let sum = ref 0 in
    for i = 0 to n - 1 do
      sum := !sum + A.unsafe_get bufs.service i
    done;
    log
      (Printf.sprintf "%s round %d: %.0f req/s, %d wrong" (if traced then "traced" else "untraced") k
         (float_of_int n /. (float_of_int !sum /. 1e9)) r.failed);
    r
  in
  let rec loop acc k =
    let t0 = elapsed () in
    let u = one ~traced:false k in
    let acc = (u, if trace then Some (one ~traced:true k) else None) :: acc in
    (* Start another round only if one more of the same length still fits. *)
    let fits = elapsed () +. (elapsed () -. t0) <= seconds in
    if k < min_rounds || (k < max_rounds && fits) then loop acc (k + 1) else acc
  in
  let pairs = loop [] 1 in
  let untraced = List.map fst pairs and traced = List.filter_map snd pairs in
  let values =
    (("setup_s", median (List.map (fun r -> r.setup_s) untraced))
    :: ("live_heap_mb", median (List.map (fun r -> r.live_heap_mb) untraced))
    :: timing w ~n bufs untraced_c)
    @
    match traced with
    | [] -> []
    | first :: _ ->
      let u = float_of_int (total_ns untraced_c) and t = float_of_int (total_ns traced_c) in
      ("trace.overhead_pct", (t -. u) /. u *. 100.)
      :: List.map (fun (k, _) -> (k, median (List.map (fun r -> List.assoc k r.layers) traced))) first.layers
  in
  let all = untraced @ traced in
  {
    attempted = List.fold_left (fun a r -> a + r.requests) 0 all;
    failures = List.fold_left (fun a r -> a + r.failed) 0 all;
    values;
  }

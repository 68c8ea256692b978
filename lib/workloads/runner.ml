module Kernel = Dcache_syscalls.Kernel
module Batch = Dcache_syscalls.Batch
module Counter = Dcache_util.Stats.Counter
module Vclock = Dcache_util.Vclock
module Prng = Dcache_util.Prng
module Lhist = Dcache_util.Stats.Lhist

type result = {
  label : string;
  real_ns : int64;
  virt_ns : int64;
  total_ns : int64;
  path_lookups : int;
  hit_rate : float;
  neg_rate : float;
  counters : (string * int) list;
}

let run ?(label = "workload") env f =
  Env.reset_measurement env;
  let _, real_ns = Dcache_util.Clock.time_ns f in
  let virt_ns = Dcache_util.Vclock.elapsed_ns env.Env.vclock in
  let counters = Kernel.stats_snapshot env.Env.kernel in
  let get key = List.assoc key counters in
  let hits = get "dcache_hit" in
  let misses = get "dcache_miss" in
  let lookups = get "path_lookup" in
  let negatives =
    get "walk_negative_hit" + get "fastpath_negative_hit" + get "complete_dir_negative"
  in
  {
    label;
    real_ns;
    virt_ns;
    total_ns = Int64.add real_ns virt_ns;
    path_lookups = lookups;
    hit_rate =
      (if hits + misses = 0 then 1.0
       else float_of_int hits /. float_of_int (hits + misses));
    neg_rate =
      (if lookups = 0 then 0.0 else float_of_int negatives /. float_of_int lookups);
    counters;
  }

type open_loop = {
  ol_label : string;
  ol_batch : int;
  ol_rate_per_s : float;
  ol_ops : int;
  ol_busy_ns : int64;
  ol_span_ns : int64;
  ol_p50_ns : int;
  ol_p99_ns : int;
  ol_mean_ns : float;
}

(* Open-loop driver (§3.9): ops arrive on the virtual timeline as a Poisson
   process at [rate_per_s] regardless of service progress — the arrival
   clock never waits for the server, so queueing delay is visible in the
   sojourn times instead of being absorbed by a closed loop's back-pressure.
   Each batch of [batch] arrivals is pushed into the ring by [fill] and
   submitted once its last op has arrived; service time is the submit's
   measured wall time plus whatever simulated device time it charged, and
   per-op sojourn (completion - arrival) lands in a PR-3 latency histogram
   whose p50/p99 the result reports. *)
let run_open_loop ?(label = "open-loop") ?(seed = 42) env ~rate_per_s ~batch ~batches
    ~fill () =
  if batch <= 0 || batches <= 0 then invalid_arg "Runner.run_open_loop";
  if rate_per_s <= 0.0 then invalid_arg "Runner.run_open_loop: rate";
  let ring = Batch.create ~cap:batch env.Env.proc in
  let prng = Prng.create (0x0b5e55ed + seed) in
  let hist = Lhist.create () in
  let arrivals = Array.make batch 0L in
  let now = ref 0L (* virtual arrival clock *) in
  let completed = ref 0L (* completion time of the previous batch *) in
  let busy = ref 0L in
  for b = 0 to batches - 1 do
    for k = 0 to batch - 1 do
      let u = Prng.float prng 1.0 in
      let gap_ns = -.log (1.0 -. u) /. rate_per_s *. 1e9 in
      now := Int64.add !now (Int64.of_float gap_ns);
      arrivals.(k) <- !now
    done;
    Batch.reset ring;
    for k = 0 to batch - 1 do
      fill ring ((b * batch) + k)
    done;
    let virt0 = Vclock.elapsed_ns env.Env.vclock in
    let (), wall_ns = Dcache_util.Clock.time_ns (fun () -> Batch.submit ring) in
    let service_ns =
      Int64.add wall_ns (Int64.sub (Vclock.elapsed_ns env.Env.vclock) virt0)
    in
    let start = if Int64.compare !completed !now > 0 then !completed else !now in
    let finish = Int64.add start service_ns in
    completed := finish;
    busy := Int64.add !busy service_ns;
    for k = 0 to batch - 1 do
      Lhist.record hist (Int64.to_int (Int64.sub finish arrivals.(k)))
    done
  done;
  {
    ol_label = label;
    ol_batch = batch;
    ol_rate_per_s = rate_per_s;
    ol_ops = batch * batches;
    ol_busy_ns = !busy;
    ol_span_ns = (if Int64.compare !completed !now > 0 then !completed else !now);
    ol_p50_ns = Lhist.percentile hist 50.0;
    ol_p99_ns = Lhist.percentile hist 99.0;
    ol_mean_ns = Lhist.mean hist;
  }

let seconds r = Int64.to_float r.total_ns /. 1e9

let gain ~baseline r =
  let b = Int64.to_float baseline.total_ns in
  let v = Int64.to_float r.total_ns in
  if b = 0.0 then 0.0 else (b -. v) /. b *. 100.0

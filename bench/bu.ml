(* Benchmark utilities: robust timing, table formatting, environments. *)

module W = Dcache_workloads
module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module S = Dcache_syscalls.Syscalls
module Config = Dcache_vfs.Config
module Stats = Dcache_util.Stats

let quick = ref true

(* Set by an experiment whose exact-count check failed; main.exe exits
   with it after every named experiment has run. *)
let exit_code = ref 0

(* Repeat a measurement and keep the median: the container we run in is
   noisy, and medians recover the shape the paper reports. *)
let repeats () = if !quick then 5 else 9

let median_of_runs f =
  let samples = Array.init (repeats ()) (fun _ -> f ()) in
  Stats.median samples

(* Mean latency of [f] over a loop, in nanoseconds. *)
let latency_ns ?(iters = 2000) f =
  median_of_runs (fun () ->
      f ();
      (* warm before the timed window *)
      let t0 = Dcache_util.Clock.now_ns () in
      for _ = 1 to iters do
        f ()
      done;
      let t1 = Dcache_util.Clock.now_ns () in
      Int64.to_float (Int64.sub t1 t0) /. float_of_int iters)

(* Like [latency_ns] but also charges the environment's virtual clock
   (simulated device + fs-call time) to each operation. *)
let env_latency_ns (env : W.Env.t) ?(iters = 2000) f =
  median_of_runs (fun () ->
      f ();
      let v0 = Dcache_util.Vclock.elapsed_ns env.W.Env.vclock in
      let t0 = Dcache_util.Clock.now_ns () in
      for _ = 1 to iters do
        f ()
      done;
      let t1 = Dcache_util.Clock.now_ns () in
      let v1 = Dcache_util.Vclock.elapsed_ns env.W.Env.vclock in
      Int64.to_float (Int64.add (Int64.sub t1 t0) (Int64.sub v1 v0)) /. float_of_int iters)

let counter (env : W.Env.t) key =
  List.assoc key (Kernel.stats_snapshot env.W.Env.kernel)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "bench %s: %s" what (Dcache_types.Errno.to_string e))

(* --- output helpers --- *)

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let subheader title = Printf.printf "\n--- %s ---\n" title

let row fmt = Printf.printf fmt

let pct_gain ~base v = if base = 0.0 then 0.0 else (base -. v) /. base *. 100.0

(* --- environments --- *)

let ram_pair () = (W.Env.ram Config.baseline, W.Env.ram Config.optimized)

let disk_pair () = (W.Env.disk Config.baseline, W.Env.disk Config.optimized)

let scale () = if !quick then 0.6 else 1.5

(* The application tables need longer runtimes to measure reliably. *)
let app_scale () = if !quick then 2.5 else 5.0

let ns_to_us ns = ns /. 1000.0
let seconds r = W.Runner.seconds r

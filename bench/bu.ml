(* Benchmark settings and helpers shared by every experiment: the scale
   switch, environment sizes, counter reads and section headings.  Trials,
   timing, tables and gates live in [Figure]. *)

module W = Dcache_workloads
module Kernel = Dcache_syscalls.Kernel

let quick = ref true

(* A kernel counter by its declared id ([Dcache_util.Counters]). *)
let count kernel id = Dcache_util.Stats.Counter.get (Kernel.counters kernel) id

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "bench %s: %s" what (Dcache_types.Errno.to_string e))

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

let subheader title = Printf.printf "\n--- %s ---\n" title

let pct_gain ~base v = if base = 0.0 then 0.0 else (base -. v) /. base *. 100.0
let pct_rise ~base v = -.pct_gain ~base v

let scale () = if !quick then 0.6 else 1.5

(* The application tables need longer runtimes to measure reliably. *)
let app_scale () = if !quick then 2.5 else 5.0

let seconds r = W.Runner.seconds r

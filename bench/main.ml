(* Benchmark harness: regenerates every figure and table of the paper's
   evaluation (§6).  Run with no arguments for all experiments at quick
   scale, `--full` for paper-scale parameters, or name experiment ids
   (`--list` prints them) to run a subset.  Every experiment prints its
   tables and writes them, with the spread of every timed cell, to
   BENCH_<id>.json (figure.ml).  See DESIGN.md for the experiment index. *)

module W = Dcache_workloads
module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module S = Dcache_syscalls.Syscalls
module Config = Dcache_vfs.Config
module Timers = Dcache_util.Timers
module Stats = Dcache_util.Stats
module Counters = Dcache_util.Counters
module Signature = Dcache_sig.Signature
module Siphash = Dcache_comparators.Siphash
module Dlfs = Dcache_comparators.Dlfs
module Prng = Dcache_util.Prng
module Vclock = Dcache_util.Vclock
module Fault = Dcache_util.Fault
module Utrace = Dcache_util.Trace
module Fastpath = Dcache_core.Fastpath
module Errno = Dcache_types.Errno
open Bu
open Figure

(* A base and an optimized arm, timed alternately. *)
let vs base opt = match trials [ base; opt ] with [ b; o ] -> (b, o) | _ -> assert false

(* One row per labelled arm; the arms are timed alternately. *)
let arm_rows ?(k = 1.0) t arms =
  List.iter2 (fun (label, _) s -> row t [ L label; M (rescale k s) ]) arms (trials (List.map snd arms))

(* Rows of labelled configs by measured columns: each column holds one arm
   per row, and a column's arms are timed alternately. *)
let grid ?(k = 1.0) t labels columns =
  let measured = List.map (fun arms -> List.map (rescale k) (trials arms)) columns in
  List.iteri (fun i label -> row t (L label :: List.map (fun c -> M (List.nth c i)) measured)) labels

let us = rescale 1e-3

(* A body that renames [a] to [b] and back on alternate calls. *)
let ping_pong rename a b =
  let there = ref false in
  fun () ->
    let src, dst = if !there then (b, a) else (a, b) in
    there := not !there;
    rename src dst

let readdir_arm (env : W.Env.t) ~iters dir () =
  per_op ~vclock:env.W.Env.vclock ~iters (fun () ->
      ignore (ok "rd" (S.readdir_path env.W.Env.proc dir)))

let mkstemp_arm (env : W.Env.t) ~seed dir =
  let p = env.W.Env.proc in
  let prng = Prng.create seed in
  fun () ->
    per_op ~vclock:env.W.Env.vclock ~iters:100 (fun () ->
        let fd, path = ok "mkstemp" (S.mkstemp ~prng p dir) in
        ok "close" (S.close p fd);
        ok "unlink" (S.unlink p path))

(* Allocation tables: minor words and ns per call of a warm operation. *)
let words_table key =
  table key
    [ col ~left:true 44 "case" "case"; col ~dec:2 9 "words/op" "words_per_op";
      col 9 "ns/op" "ns_per_op" ]

let words_row t label ~iters f =
  f ();
  let words = Stats.minor_words_per_op ~iters f in
  row t [ L label; R words; M (latency f) ];
  words

(* ------------------------------------------------------------------ *)
(* Application suite shared by Fig. 1, Table 1 and Table 2.           *)
(* ------------------------------------------------------------------ *)

type app = {
  app_name : string;
  setup_each : unit -> unit;  (** untimed per-invocation preparation *)
  run : unit -> unit;  (** the measured work *)
  loops : int;  (** read-only apps loop to rise above host noise *)
}

let make_jobs () = if !quick then 4 else 12

let build_apps (env : W.Env.t) =
  let p = env.W.Env.proc in
  let manifest =
    W.Tree_gen.build p ~root:"/src" (W.Tree_gen.source_tree ~scale:(app_scale ()) ())
  in
  ignore (W.Tree_gen.build p ~root:"/usr" (W.Tree_gen.usr_tree ~scale:(app_scale ()) ()));
  let menv = W.Apps.make_setup p ~root:"/src" ~headers:40 ~seed:11 in
  W.Apps.git_setup p ~manifest;
  let uniq = ref 0 in
  (* Fixed-width names: a trial tree's path bytes (Table 1's [l]) must not
     grow when the counter gains a digit. *)
  let fresh prefix =
    incr uniq;
    Printf.sprintf "/%s%06d" prefix !uniq
  in
  let rm_target = ref "" in
  let nop = ignore in
  [
    {
      app_name = "find -name";
      loops = 5;
      setup_each = nop;
      run = (fun () -> ignore (W.Apps.find p ~root:"/src" ~pattern:"conf"));
    };
    {
      app_name = "tar xzf";
      loops = 1;
      setup_each = nop;
      run = (fun () -> ignore (W.Apps.tar_extract p ~manifest ~dst:(fresh "tar")));
    };
    {
      app_name = "rm -r";
      loops = 1;
      setup_each =
        (fun () ->
          let dst = fresh "rmtree" in
          rm_target := dst;
          ignore (W.Apps.tar_extract p ~manifest ~dst));
      run = (fun () -> ignore (W.Apps.rm_rf p ~root:!rm_target));
    };
    {
      app_name = "make";
      loops = 1;
      setup_each = nop;
      run = (fun () -> ignore (W.Apps.make p ~manifest ~env:menv ~headers_per_file:8 ~seed:3));
    };
    {
      app_name = Printf.sprintf "make -j%d" (make_jobs ());
      loops = 1;
      setup_each = nop;
      run =
        (fun () ->
          ignore
            (W.Apps.make_parallel p ~manifest ~env:menv ~headers_per_file:8 ~seed:3
               ~jobs:(make_jobs ())));
    };
    {
      app_name = "du -s";
      loops = 5;
      setup_each = nop;
      run = (fun () -> ignore (W.Apps.du p ~root:"/src"));
    };
    {
      app_name = "updatedb -U usr";
      loops = 5;
      setup_each = nop;
      run = (fun () -> ignore (W.Apps.updatedb p ~root:"/usr" ~output:(fresh "db")));
    };
    {
      app_name = "git status";
      loops = 5;
      setup_each = nop;
      run = (fun () -> ignore (W.Apps.git_status p ~manifest));
    };
    {
      app_name = "git diff";
      loops = 3;
      setup_each = nop;
      run = (fun () -> ignore (W.Apps.git_diff p ~manifest));
    };
  ]

(* Every app's runs on the two kernels, alternated trial by trial so slow
   drift in the (noisy) host hits both kernels equally. *)
let run_app_tables ~cold env_base env_opt =
  let apps_base = build_apps env_base in
  let apps_opt = build_apps env_opt in
  (* Cold runs are dominated by deterministic virtual device time; one
     trial is enough.  Warm runs are wall-clock and need medians. *)
  let n = if cold then 1 else if !quick then 5 else 7 in
  List.map2
    (fun app_b app_o ->
      (* Paper protocol: the warm-up run is dropped (warm cache); for the
         cold table, caches are dropped right before every measured run. *)
      let one env (app : app) () =
        app.setup_each ();
        if cold then W.Env.drop_caches env;
        let loops = if cold then 1 else app.loops in
        let r =
          W.Runner.run ~label:app.app_name env (fun () ->
              for _ = 1 to loops do
                app.run ()
              done)
        in
        let per ns = Int64.div ns (Int64.of_int loops) in
        { r with
          W.Runner.real_ns = per r.W.Runner.real_ns;
          virt_ns = per r.W.Runner.virt_ns;
          total_ns = per r.W.Runner.total_ns }
      in
      match runs ~n [ one env_base app_b; one env_opt app_o ] with
      | [ rb; ro ] -> (app_b.app_name, rb, ro)
      | _ -> assert false)
    apps_base apps_opt

let path_stats (result : W.Runner.result) =
  let get id = float_of_int (List.assoc (Stats.Counter.name id) result.W.Runner.counters) in
  let lookups = float_of_int (max 1 result.W.Runner.path_lookups) in
  (get Counters.path_bytes /. lookups, get Counters.path_comps /. lookups)

(* ------------------------------------------------------------------ *)
(* Fig. 1: fraction of execution time in path-based system calls       *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header
    "Fig. 1 - Fraction of execution time in path-based syscalls (warm cache,\n\
     unmodified kernel; paper instrument: ftrace, ours: built-in timers)";
  let env = W.Env.disk Config.baseline in
  let apps =
    (* the parallel make accumulates syscall time across domains, which is
       not comparable to wall time; Fig. 1 keeps the serial applications *)
    List.filter
      (fun app -> not (String.starts_with ~prefix:"make -" app.app_name))
      (build_apps env)
  in
  let pct = col ~suffix:"%" in
  let t =
    table "apps"
      [ col ~left:true 16 "app" "app"; pct 10 "acc/stat%" "access_stat_pct"; pct 10 "open%" "open_pct";
        pct 12 "chmod/chown%" "chmod_chown_pct"; pct 10 "unlink%" "unlink_pct";
        pct 8 "total%" "total_pct" ]
  in
  let tm = Kernel.timers env.W.Env.kernel in
  List.iter
    (fun app ->
      let fractions () =
        app.setup_each ();
        Timers.reset tm;
        Timers.arm tm Timers.Syscalls true;
        let total = float_of_int (elapsed_ns app.run) in
        Timers.arm tm Timers.Syscalls false;
        let frac id = float_of_int (Stats.Lhist.sum (Timers.get tm id)) /. total *. 100.0 in
        List.map frac [ Timers.access_stat; Timers.open_; Timers.chmod_chown; Timers.unlink ]
        @ [ List.fold_left (fun acc id -> acc +. frac id) 0.0 Timers.syscalls ]
      in
      row t (L app.app_name :: List.map (fun s -> M s) (spreads (List.hd (runs [ fractions ])))))
    apps

(* ------------------------------------------------------------------ *)
(* Fig. 2: the optimization trajectory (stands in for kernel versions) *)
(* ------------------------------------------------------------------ *)

let stat_8comp_latency config () =
  let env = W.Env.ram config in
  let p = env.W.Env.proc in
  W.Lmbench.setup p;
  let pattern = List.find (fun q -> q.W.Lmbench.label = "8-comp") W.Lmbench.patterns in
  W.Lmbench.measure_stat p pattern ~iters:(if !quick then 3000 else 20000)

let fig2 () =
  header
    "Fig. 2 - stat latency for XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF.\n\
     Substitution: the paper plots Linux releases 2010-2015; we plot the\n\
     optimization ladder from the modeled 3.14 baseline to the full design.";
  let ladder =
    [
      ("baseline (Linux 3.14 model)", Config.baseline);
      ("+ direct lookup (DLHT+PCC+signatures)", { Config.baseline with Config.fastpath = true });
      ( "+ symlink aliases",
        { Config.baseline with Config.fastpath = true; symlink_aliases = true } );
      ( "+ directory completeness",
        {
          Config.baseline with
          Config.fastpath = true;
          symlink_aliases = true;
          dir_completeness = true;
        } );
      ("+ aggressive & deep negatives (full design)", Config.optimized);
    ]
  in
  let t =
    table "ladder"
      [ col ~left:true 45 "configuration" "config"; col 12 "stat (ns)" "stat_ns";
        col ~sign:true ~suffix:"%" 8 "vs base" "gain_pct" ]
  in
  let stats = trials (List.map (fun (_, config) -> stat_8comp_latency config) ladder) in
  let base = (List.hd stats).median in
  List.iter2 (fun (name, _) s -> row t [ L name; M s; R (pct_gain ~base s.median) ]) ladder stats;
  subheader "paper 3.3 hash-function comparison (per-signature cost, 45-byte path)";
  let path = "usr/include/gcc-x86_64-linux-gnu/sys/types.h" in
  let key = Signature.create_key ~seed:7 () in
  let sipkey = Siphash.key_of_seed 7 in
  let hash f () = per_op ~iters:20000 f in
  arm_rows
    (table "hashes" [ col ~left:true 45 "hash function" "hash"; col 12 "ns" "ns" ])
    [
      ( "2-universal multilinear (ours, 4 lanes)",
        hash (fun () -> ignore (Signature.hash_string key path)) );
      ("SipHash-2-4 PRF (4 lanes, software)", hash (fun () -> ignore (Siphash.hash256 sipkey path)));
    ];
  print_endline "(the paper reached the same conclusion: the PRF costs too much to win)"

(* ------------------------------------------------------------------ *)
(* Fig. 3: principal components of lookup latency                      *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header
    "Fig. 3 - Principal sources of path lookup latency (ns per lookup).\n\
     Note: per-phase timers add overhead; compare shapes, not totals.";
  let iters = if !quick then 2000 else 10000 in
  let t =
    table "phases"
      [ col ~left:true 10 "kernel" "kernel"; col ~left:true 18 "path" "path"; col 8 "init" "init_ns";
        col 10 "permission" "permission_ns"; col 12 "scan+hash" "scan_hash_ns";
        col 10 "tbl-lookup" "table_lookup_ns"; col 9 "finalize" "finalize_ns" ]
  in
  List.iter
    (fun (label, config) ->
      let env = W.Env.ram config in
      let p = env.W.Env.proc in
      let tm = Kernel.timers env.W.Env.kernel in
      W.Lmbench.setup p;
      List.iter
        (fun (plabel, path) ->
          let phases () =
            Timers.reset tm;
            Timers.arm tm Timers.Lookups true;
            for _ = 1 to iters do
              ignore (S.stat p path)
            done;
            Timers.arm tm Timers.Lookups false;
            List.map
              (fun id -> float_of_int (Stats.Lhist.sum (Timers.get tm id)) /. float_of_int iters)
              [ Timers.init; Timers.permission; Timers.scan_hash; Timers.table_lookup; Timers.finalize ]
          in
          row t (L label :: L plabel :: List.map (fun s -> M s) (spreads (List.hd (runs [ phases ])))))
        W.Lmbench.fig3_paths)
    [ ("unmod", Config.baseline); ("opt", Config.optimized) ]

(* ------------------------------------------------------------------ *)
(* Fig. 6: stat/open latency per path pattern                          *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Fig. 6 - stat and open latency by path pattern (ns; lower is better)";
  let iters = if !quick then 2000 else 20000 in
  let mk config =
    let env = W.Env.ram config in
    W.Lmbench.setup env.W.Env.proc;
    env
  in
  let env_base = mk Config.baseline in
  let env_opt = mk Config.optimized in
  let env_miss = mk Config.optimized in
  Fastpath.set_simulate_pcc_miss (Kernel.fastpath env_miss.W.Env.kernel) true;
  let env_lex = mk { Config.optimized with Config.dotdot = Config.Dotdot_lexical } in
  List.iter
    (fun (syscall, f) ->
      subheader (syscall ^ " latency (ns)");
      let t =
        table syscall
          [ col ~left:true 10 "pattern" "pattern"; col 10 "unmod" "unmod_ns"; col 10 "opt" "opt_ns";
            col 14 "opt-PCC-miss" "opt_pcc_miss_ns"; col 12 "opt-lexical*" "opt_lexical_ns" ]
      in
      List.iter
        (fun pattern ->
          let dotdot =
            match pattern.W.Lmbench.label with "1-dotdot" | "4-dotdot" -> true | _ -> false
          in
          let envs = [ env_base; env_opt; env_miss ] @ if dotdot then [ env_lex ] else [] in
          let arms = List.map (fun (env : W.Env.t) () -> f env.W.Env.proc pattern ~iters) envs in
          let cells = List.map (fun s -> M s) (trials arms) in
          row t ((L pattern.W.Lmbench.label :: cells) @ if dotdot then [] else [ Nil ]))
        W.Lmbench.patterns)
    [ ("stat", W.Lmbench.measure_stat); ("open", W.Lmbench.measure_open) ];
  print_endline "(* Plan 9 lexical dot-dot semantics, applicable to dot-dot patterns)"

(* ------------------------------------------------------------------ *)
(* Fig. 7: chmod / rename latency vs cached subtree size               *)
(* ------------------------------------------------------------------ *)

let build_subtree p ~root ~depth ~files =
  ok "mkdir root" (S.mkdir_p p root);
  if depth = 0 then begin
    for i = 1 to files do
      ok "file" (S.write_file p (Printf.sprintf "%s/f%d" root i) "x")
    done
  end
  else begin
    let fanout = 4 in
    let rec dirs_at prefix level acc =
      if level = depth then prefix :: acc
      else
        List.fold_left
          (fun acc i -> dirs_at (Printf.sprintf "%s/d%d" prefix i) (level + 1) acc)
          acc
          (List.init fanout (fun i -> i))
    in
    let leaves = dirs_at root 0 [] in
    List.iter (fun d -> ok "mkdir" (S.mkdir_p p d)) leaves;
    let leaves = Array.of_list leaves in
    for i = 1 to files do
      let dir = leaves.(i mod Array.length leaves) in
      ok "file" (S.write_file p (Printf.sprintf "%s/f%d" dir i) "x")
    done
  end

let fig7 () =
  header
    "Fig. 7 - chmod/rename latency on directories with cached descendants\n\
     (us; the optimized kernel pays per-descendant invalidation, paper 3.2)";
  let cases =
    [ ("single file", 0, 1); ("depth=1, 10", 1, 10); ("depth=2, 100", 2, 100);
      ("depth=3, 1000", 3, 1000) ]
    @ if !quick then [] else [ ("depth=4, 10000", 4, 10000) ]
  in
  let env_b = W.Env.ram Config.baseline and env_o = W.Env.ram Config.optimized in
  let ucol = col ~dec:2 ~suffix:"us" and slow = col ~dec:0 ~sign:true ~suffix:"%" in
  let t =
    table "trees"
      [ col ~left:true 18 "tree" "tree"; ucol 12 "chmod-base" "chmod_base_us";
        ucol 12 "chmod-opt" "chmod_opt_us"; slow 8 "slowdn" "chmod_slowdown_pct";
        ucol ~bar:true 12 "renam-base" "rename_base_us"; ucol 12 "renam-opt" "rename_opt_us";
        slow 8 "slowdn" "rename_slowdown_pct" ]
  in
  List.iter
    (fun (label, depth, files) ->
      let root = Printf.sprintf "/t%d_%d" depth files in
      let build (env : W.Env.t) =
        let p = env.W.Env.proc in
        if depth = 0 && files = 1 then begin
          ok "mkdir" (S.mkdir_p p root);
          ok "single" (S.write_file p (root ^ "/only") "x")
        end
        else build_subtree p ~root ~depth ~files;
        (* warm every descendant *)
        ignore (W.Apps.du p ~root);
        p
      in
      let pb = build env_b and po = build env_o in
      let iters = if files >= 1000 then 20 else 200 in
      let timed body p =
        let f = body p in
        fun () -> per_op ~iters f
      in
      let chmod p =
        let mode = ref 0o755 in
        fun () ->
          mode := if !mode = 0o755 then 0o750 else 0o755;
          ok "chmod" (S.chmod p root !mode)
      in
      let rename p = ping_pong (fun src dst -> ok "rename" (S.rename p src dst)) root (root ^ "alt") in
      let cb, co = vs (timed chmod pb) (timed chmod po) in
      let rb, ro = vs (timed rename pb) (timed rename po) in
      let slowdown a b = pct_rise ~base:a.median b.median in
      row t
        [ L label; M (us cb); M (us co); R (slowdown cb co); M (us rb); M (us ro); R (slowdown rb ro) ])
    cases

(* ------------------------------------------------------------------ *)
(* Fig. 8: lookup latency under concurrent threads                     *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header
    (Printf.sprintf
       "Fig. 8 - stat/open latency vs concurrent threads (ns per op per thread).\n\
        Substitution: this host exposes %d CPU core(s); domains timeshare, so\n\
        this exercises the read-path synchronization, not HW parallelism."
       (Domain.recommended_domain_count ()));
  let iters = if !quick then 2000 else 10000 in
  let measure config do_open nthreads () =
    let env = W.Env.ram config in
    let p = env.W.Env.proc in
    W.Lmbench.setup p;
    let path = "XXX/YYY/ZZZ/FFF" in
    ignore (ok "warm" (S.stat p path));
    let worker () =
      let wp = Proc.fork p in
      fun () ->
        for _ = 1 to iters do
          if do_open then begin
            match S.openf wp path [ Proc.O_RDONLY ] with
            | Ok fd -> ignore (S.close wp fd)
            | Error _ -> ()
          end
          else ignore (S.stat wp path)
        done
    in
    let bodies = List.init nthreads (fun _ -> worker ()) in
    (* wall time divided by per-thread iterations and threads: per-op cost
       normalized for timesharing *)
    float_of_int (elapsed_ns (fun () -> List.iter Domain.join (List.map Domain.spawn bodies)))
    /. float_of_int (iters * nthreads)
  in
  let t =
    table "threads"
      [ col ~left:true 8 "threads" "threads"; col 12 "stat-base" "stat_base_ns";
        col 12 "stat-opt" "stat_opt_ns"; col 12 "open-base" "open_base_ns";
        col 12 "open-opt" "open_opt_ns" ]
  in
  List.iter
    (fun n ->
      let arms =
        [ measure Config.baseline false n; measure Config.optimized false n;
          measure Config.baseline true n; measure Config.optimized true n ]
      in
      row t (C n :: List.map (fun s -> M s) (trials arms)))
    [ 1; 2; 4; 8; 12 ];
  (* Warm probes over 8 cached 4-component paths, one forked proc per domain.  A domain reports
     its fastest of 8 chunks: a host neighbour slows some chunks, a shared write every one. *)
  let probes = if !quick then 200_000 else 2_000_000 in
  let probe config domains =
    let env = W.Env.ram config in
    let p = env.W.Env.proc and fp = Kernel.fastpath env.W.Env.kernel in
    let paths = Array.init 8 (Printf.sprintf "/w/d%d/e/f") in
    Array.iter (fun f -> ok "mk" (S.mkdir_p p (Filename.dirname f)); ok "f" (S.write_file p f "")) paths;
    let run ctx () =
      let i = ref 0 in
      let f () =
        ignore (Fastpath.lookup_into fp ctx paths.(!i land 7) ~within:(fun _ _ -> Ok ()));
        incr i
      in
      List.fold_left Float.min infinity (List.init 8 (fun _ -> per_op ~iters:(probes / 8) f))
    in
    let ctxs = List.init domains (fun _ -> Proc.walk_ctx (Proc.fork p)) in
    fun () ->
      let ns = List.map Domain.join (List.map (fun c -> Domain.spawn (run c)) ctxs) in
      List.fold_left ( +. ) 0.0 ns /. float_of_int domains
  in
  let cols = [ col 12 "probe-base" "probe_base_ns"; col 12 "probe-opt" "probe_opt_ns" ] in
  let t = table "warm_probe" (col ~left:true 8 "domains" "domains" :: cols) in
  let arms d = [ probe Config.baseline d; probe Config.optimized d ] in
  let s = Array.of_list (trials (arms 1 @ arms 2)) in
  List.iteri (fun i d -> row t [ C d; M s.(2 * i); M s.((2 * i) + 1) ]) [ 1; 2 ];
  loose (s.(3).median <= 1.15 *. s.(1).median) "warm probe: 2 domains %.0f ns/op > 1.15x 1's %.0f"
    s.(3).median s.(1).median

(* ------------------------------------------------------------------ *)
(* Fig. 9: readdir and mkstemp latency vs directory size               *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  header "Fig. 9 - readdir and mkstemp latency vs directory size (us)";
  (* Disk-backed fs: the readdir win comes from skipping on-disk dirent
     re-parsing (paper 5.1). *)
  let env_b = W.Env.disk Config.baseline and env_o = W.Env.disk Config.optimized in
  let ucol = col ~dec:2 ~suffix:"us" and gain = col ~dec:0 ~sign:true ~suffix:"%" in
  let t =
    table "sizes"
      [ col ~left:true 8 "files" "files"; ucol 13 "readdir-base" "readdir_base_us";
        ucol 13 "readdir-opt" "readdir_opt_us"; gain 8 "gain" "readdir_gain_pct";
        ucol ~bar:true 13 "mkstmp-base" "mkstemp_base_us"; ucol 13 "mkstmp-opt" "mkstemp_opt_us";
        gain 8 "gain" "mkstemp_gain_pct" ]
  in
  List.iter
    (fun size ->
      let dir = Printf.sprintf "/dir%d" size in
      let readdir (env : W.Env.t) =
        W.Webserver.setup env.W.Env.proc ~dir ~files:size;
        ignore (ok "warm" (S.readdir_path env.W.Env.proc dir));
        readdir_arm env ~iters:(max 20 (2000 / size)) dir
      in
      let rb, ro = vs (readdir env_b) (readdir env_o) in
      let mb, mo = vs (mkstemp_arm env_b ~seed:size dir) (mkstemp_arm env_o ~seed:size dir) in
      let gain a b = pct_gain ~base:a.median b.median in
      row t [ C size; M (us rb); M (us ro); R (gain rb ro); M (us mb); M (us mo); R (gain mb mo) ])
    ([ 10; 100; 1000 ] @ if !quick then [] else [ 10000 ])

(* ------------------------------------------------------------------ *)
(* Fig. 10: Dovecot maildir throughput                                 *)
(* ------------------------------------------------------------------ *)

let throughput_table key head =
  table key
    [ col ~left:true 10 head "size"; col ~dec:0 14 "base (ops/s)" "base_per_s";
      col ~dec:0 14 "opt (ops/s)" "opt_per_s"; col ~sign:true ~suffix:"%" 8 "gain" "gain_pct" ]

let throughput_row t size (b, o) = row t [ C size; M b; M o; R (pct_rise ~base:b.median o.median) ]

let fig10 () =
  header "Fig. 10 - Dovecot IMAP model: mark/unmark throughput (ops/s)";
  let ops = if !quick then 60 else 200 in
  let t = throughput_table "mailboxes" "mailbox" in
  List.iter
    (fun size ->
      let arm config =
        let env = W.Env.disk config in
        let p = env.W.Env.proc in
        let mbox =
          W.Maildir.setup p ~root:(Printf.sprintf "/mail%d" size) ~messages:size ~seed:7
        in
        ignore (W.Maildir.run_ops p mbox ~ops:5 ~seed:1);
        fun () ->
          let r = W.Runner.run env (fun () -> ignore (W.Maildir.run_ops p mbox ~ops ~seed:2)) in
          float_of_int ops /. seconds r
      in
      throughput_row t size (vs (arm Config.baseline) (arm Config.optimized)))
    ([ 50; 100; 500; 1000 ] @ if !quick then [] else [ 2000; 3000 ])

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: application execution time, warm and cold           *)
(* ------------------------------------------------------------------ *)

let app_table ~cold title =
  header title;
  let env_base = W.Env.disk Config.baseline in
  let env_opt = W.Env.disk Config.optimized in
  let rows = run_app_tables ~cold env_base env_opt in
  let secs ?bar = col ~dec:4 ?bar 12 and pct = col ~suffix:"%" 6 in
  let t =
    table "apps"
      [ col ~left:true 16 "app" "app"; col ~dec:0 5 "l" "path_bytes"; col 4 "#" "path_comps";
        secs ~bar:true "unmod (s)" "unmod_s"; pct "hit%" "unmod_hit_pct";
        pct "neg%" "unmod_neg_pct"; secs ~bar:true "opt (s)" "opt_s";
        col ~dec:2 ~sign:true ~suffix:"%" 8 "gain" "gain_pct" ]
  in
  let median_run rs =
    let sorted = List.sort (fun a b -> Int64.compare a.W.Runner.total_ns b.W.Runner.total_ns) rs in
    List.nth sorted (List.length sorted / 2)
  in
  List.iter
    (fun (name, rbs, ros) ->
      let rb = median_run rbs and ro = median_run ros in
      let l, comps = path_stats rb in
      let time rs = M (spread (List.map seconds rs)) in
      row t
        [ L name; R l; R comps; time rbs; R (rb.W.Runner.hit_rate *. 100.0);
          R (rb.W.Runner.neg_rate *. 100.0); time ros; R (W.Runner.gain ~baseline:rb ro) ])
    rows

let tab1 () =
  app_table ~cold:false
    "Table 1 - Application execution time, warm cache (disk-backed extfs,\n\
     warm page cache; l = avg path bytes, # = avg components)"

let tab2 () =
  app_table ~cold:true
    "Table 2 - Application execution time, cold cache (dcache and page cache\n\
     dropped; simulated disk latency dominates, gains vanish as in the paper)"

(* ------------------------------------------------------------------ *)
(* Table 3: Apache directory-listing throughput                        *)
(* ------------------------------------------------------------------ *)

let tab3 () =
  header "Table 3 - Apache-style generated directory listings (requests/s)";
  let t = throughput_table "sizes" "# files" in
  List.iter
    (fun size ->
      let arm config =
        let env = W.Env.disk config in
        let p = env.W.Env.proc in
        let dir = Printf.sprintf "/www%d" size in
        W.Webserver.setup p ~dir ~files:size;
        ignore (W.Webserver.request p ~dir);
        let iters = max 5 (2000 / size) in
        fun () ->
          1e9 /. per_op ~vclock:env.W.Env.vclock ~iters (fun () -> ignore (W.Webserver.request p ~dir))
      in
      throughput_row t size (vs (arm Config.baseline) (arm Config.optimized)))
    ([ 10; 100; 1000 ] @ if !quick then [] else [ 10000 ])

(* ------------------------------------------------------------------ *)
(* Table 4: lines of code                                              *)
(* ------------------------------------------------------------------ *)

let count_loc dir =
  let rec files d =
    match Sys.readdir d with
    | entries ->
      Array.to_list entries
      |> List.concat_map (fun e ->
             let path = Filename.concat d e in
             if Sys.is_directory path then files path
             else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then
               [ path ]
             else [])
    | exception Sys_error _ -> []
  in
  List.fold_left
    (fun acc path ->
      let ic = open_in path in
      let rec count n =
        match input_line ic with _ -> count (n + 1) | exception End_of_file -> n
      in
      let n = count 0 in
      close_in ic;
      acc + n)
    0 (files dir)

let tab4 () =
  header
    "Table 4 - Lines of code (this reproduction; the paper counts its Linux\n\
     patch the same way with sloccount)";
  let root = if Sys.file_exists "lib" then "." else ".." in
  let groups =
    [
      ("direct-lookup optimizations (lib/core, lib/sig)", [ "lib/core"; "lib/sig" ]);
      ("VFS incl. dcache hooks (lib/vfs)", [ "lib/vfs" ]);
      ("syscall layer (lib/syscalls)", [ "lib/syscalls" ]);
      ("low-level file systems (lib/fs)", [ "lib/fs" ]);
      ("storage substrate (lib/storage)", [ "lib/storage" ]);
      ("security modules (lib/cred)", [ "lib/cred" ]);
      ("support (lib/types, lib/util)", [ "lib/types"; "lib/util" ]);
      ("workloads (lib/workloads)", [ "lib/workloads" ]);
    ]
  in
  let t = table "components" [ col ~left:true 48 "component" "component"; col 10 "LoC" "loc" ] in
  let total =
    List.fold_left
      (fun total (name, dirs) ->
        let loc = List.fold_left (fun acc d -> acc + count_loc (Filename.concat root d)) 0 dirs in
        row t [ L name; C loc ];
        total + loc)
      0 groups
  in
  row t [ L "total library code"; C total ]

(* ------------------------------------------------------------------ *)
(* Ablations (paper 6.3, 6.5 and DESIGN.md design choices)             *)
(* ------------------------------------------------------------------ *)

let config_col = col ~left:true 34 "config" "config"

let gain_col = col ~sign:true ~suffix:"%" 7 "gain" "gain_pct"

(* Warm stat latency of Lmbench patterns, one row per config. *)
let pattern_table key configs patterns =
  let iters = if !quick then 2000 else 10000 in
  let t =
    table key
      (config_col
      :: List.map (fun q -> col 9 (q.W.Lmbench.label ^ " ns") (q.W.Lmbench.label ^ "_ns")) patterns)
  in
  let envs =
    List.map
      (fun (_, config) ->
        let env = W.Env.ram config in
        W.Lmbench.setup env.W.Env.proc;
        env)
      configs
  in
  grid t (List.map fst configs)
    (List.map
       (fun q ->
         List.map (fun (env : W.Env.t) () -> W.Lmbench.measure_stat env.W.Env.proc q ~iters) envs)
       patterns)

let lmbench_pattern label = List.find (fun q -> q.W.Lmbench.label = label) W.Lmbench.patterns

let ablation () =
  header "Ablations";
  subheader
    "PCC capacity vs updatedb gain (paper 6.3: gain drops when the tree\n\
     outgrows the PCC)";
  let tree_scale = scale () *. 4.0 in
  let updatedb_env config =
    let env = W.Env.disk config in
    let p = env.W.Env.proc in
    ignore (W.Tree_gen.build p ~root:"/usr" (W.Tree_gen.usr_tree ~scale:tree_scale ()));
    let uniq = ref 0 in
    let go () =
      incr uniq;
      ignore (W.Apps.updatedb p ~root:"/usr" ~output:(Printf.sprintf "/db%d" !uniq))
    in
    (* warm *)
    go ();
    (env, go)
  in
  let updatedb (env, go) () =
    seconds
      (W.Runner.run env (fun () ->
           for _ = 1 to 5 do
             go ()
           done))
    /. 5.0
  in
  let slowpath_pct (env, go) =
    let k = env.W.Env.kernel in
    Kernel.reset_stats k;
    go ();
    100.0 *. float_of_int (count k Counters.fastpath_fallback)
    /. float_of_int (max 1 (count k Counters.path_lookup))
  in
  (* Ceilings up to 4096 are the paper's static table; above it the table
     starts at 4096 and grows (the extension). *)
  let pcc entries =
    ( (if entries <= 4096 then
         Printf.sprintf "PCC %6d entries (%4d KB)" entries (entries * 16 / 1024)
       else Printf.sprintf "PCC grows to %d (extension)" entries),
      { Config.optimized with Config.pcc_entries = entries } )
  in
  let configs = ("baseline", Config.baseline) :: List.map pcc [ 64; 256; 1024; 4096; 16384 ] in
  let envs = List.map (fun (_, config) -> updatedb_env config) configs in
  let times = trials (List.map updatedb envs) in
  let t =
    table "pcc_capacity"
      [ config_col; col ~dec:4 ~suffix:"s" 11 "updatedb" "updatedb_s"; gain_col;
        col ~suffix:"%" 9 "slowpath" "slowpath_pct" ]
  in
  let base = (List.hd times).median in
  List.iteri
    (fun i (((label, _), env), s) ->
      if i = 0 then row t [ L label; M s; Nil; Nil ]
      else row t [ L label; M s; R (pct_gain ~base s.median); R (slowpath_pct env) ])
    (List.combine (List.combine configs envs) times);

  subheader "deep negative dentries (paper 6.1: without them, neg-d is much worse)";
  pattern_table "deep_negatives"
    [
      ("baseline", Config.baseline);
      ("optimized w/o deep negatives", { Config.optimized with Config.deep_negative = false });
      ("optimized (full)", Config.optimized);
    ]
    [ lmbench_pattern "neg-f"; lmbench_pattern "neg-d" ];

  subheader "directory completeness (readdir of a 1000-entry directory)";
  let big config =
    let env = W.Env.disk config in
    W.Webserver.setup env.W.Env.proc ~dir:"/big" ~files:1000;
    ignore (ok "warm" (S.readdir_path env.W.Env.proc "/big"));
    env
  in
  arm_rows ~k:1e-3
    (table "completeness" [ config_col; col ~dec:2 10 "readdir us" "readdir_us" ])
    (List.map
       (fun (label, config) -> (label, readdir_arm (big config) ~iters:20 "/big"))
       [
         ("baseline", Config.baseline);
         ("optimized w/o completeness", { Config.optimized with Config.dir_completeness = false });
         ("optimized (full)", Config.optimized);
       ]);

  subheader
    "completeness integration (paper 2.3/5.1): listings, lookups and absent\n\
     names from the dcache's own completeness (1000-entry directory, disk)";
  let integ =
    [
      ("no completeness (baseline)", Config.baseline);
      ("optimized w/o completeness", { Config.optimized with Config.dir_completeness = false });
      ("integrated (this paper)", Config.optimized);
    ]
  in
  let envs = List.map (fun (_, config) -> big config) integ in
  (* (b) readdir-then-stat of every entry, from a dropped dcache *)
  let stat_after (env : W.Env.t) () =
    let p = env.W.Env.proc in
    W.Env.drop_caches env;
    let entries = Array.of_list (ok "list" (S.readdir_path p "/big")) in
    let i = ref 0 in
    per_op ~vclock:env.W.Env.vclock ~iters:(Array.length entries) (fun () ->
        ignore (ok "stat" (S.stat p ("/big/" ^ entries.(!i).Dcache_fs.Fs_intf.name)));
        incr i)
  in
  grid ~k:1e-3
    (table "completeness_integration"
       [ col ~left:true 36 "design" "design"; col 10 "readdir us" "readdir_us";
         col ~dec:2 10 "stat-after" "stat_after_us"; col ~dec:2 10 "mkstemp us" "mkstemp_us" ])
    (List.map fst integ)
    [ List.map (fun env -> readdir_arm env ~iters:20 "/big") envs; List.map stat_after envs;
      List.map (fun env -> mkstemp_arm env ~seed:3 "/big") envs ];

  subheader "signature width vs 8-component stat latency (paper 3.3)";
  arm_rows
    (table "sig_bits" [ col ~left:true 34 "sig_bits" "sig_bits"; col 10 "stat ns" "stat_ns" ])
    (List.map
       (fun bits ->
         (string_of_int bits, stat_8comp_latency { Config.optimized with Config.sig_bits = bits }))
       [ 64; 128; 236 ]);

  subheader "*at() family: single-component lookups from a dirfd (paper 6.1)";
  let at_env config =
    let env = W.Env.ram config in
    let p = env.W.Env.proc in
    W.Lmbench.setup p;
    let dirfd = ok "open dir" (S.openf p "/XXX/YYY/ZZZ" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
    ignore (ok "warm" (S.fstatat p dirfd "FFF" ()));
    (p, dirfd)
  in
  let at_iters = if !quick then 3000 else 15000 in
  let fstatat (p, dirfd) () =
    per_op ~iters:at_iters (fun () -> ignore (ok "fstatat" (S.fstatat p dirfd "FFF" ())))
  in
  let openat (p, dirfd) () =
    per_op ~iters:at_iters (fun () ->
        ok "close" (S.close p (ok "openat" (S.openat p dirfd "FFF" [ Proc.O_RDONLY ]))))
  in
  let at_envs = [ at_env Config.baseline; at_env Config.optimized ] in
  grid
    (table "at_family" [ config_col; col 10 "fstatat ns" "fstatat_ns"; col 10 "openat ns" "openat_ns" ])
    [ "baseline"; "optimized" ]
    [ List.map fstatat at_envs; List.map openat at_envs ];

  subheader
    "network file systems (paper 4.3): stateless revalidation nullifies the\n\
     fastpath; a stateful callback protocol keeps it (per-lookup latency\n\
     including 120us-RTT RPC time)";
  let netfs_arm protocol config =
    let clock = Vclock.create () in
    let server = Dcache_fs.Netfs.server ~clock (Dcache_fs.Ramfs.create ()) in
    let kernel = Kernel.create ~config ~root_fs:(Dcache_fs.Netfs.client ~protocol server) () in
    let p = Proc.spawn kernel in
    ok "tree" (S.mkdir_p p "/export/a/b");
    ok "file" (S.write_file p "/export/a/b/file" "remote");
    ignore (ok "warm" (S.stat p "/export/a/b/file"));
    fun () ->
      per_op ~vclock:clock ~iters:500 (fun () -> ignore (ok "stat" (S.stat p "/export/a/b/file")))
  in
  let t =
    table "netfs"
      [ col ~left:true 34 "protocol" "protocol"; col 10 "unmod ns" "unmod_ns"; col 10 "opt ns" "opt_ns";
        gain_col ]
  in
  List.iter
    (fun (label, protocol) ->
      let b, o = vs (netfs_arm protocol Config.baseline) (netfs_arm protocol Config.optimized) in
      row t [ L label; M b; M o; R (pct_gain ~base:b.median o.median) ])
    [
      ("stateless (NFS v2/3 model)", Dcache_fs.Netfs.Stateless);
      ("stateful callbacks (AFS model)", Dcache_fs.Netfs.Stateful);
    ];

  subheader
    "on-disk vs in-memory full-path hashing (paper 7): renaming a directory\n\
     with N descendants costs O(N) disk rewrites on a DLFS-style store, vs\n\
     O(N) memory work here and O(1) on the baseline (us, incl. virtual disk)";
  let dlfs_rename descendants =
    let clock = Vclock.create () in
    let cache =
      Dcache_storage.Pagecache.create ~capacity_pages:16384 (Dcache_storage.Blockdev.create clock)
    in
    let t = Dlfs.mkfs_and_mount cache in
    ok "top" (Dlfs.create t "/tree" Dcache_types.File_kind.Directory);
    for i = 0 to descendants - 1 do
      ok "rec"
        (Dlfs.create t (Printf.sprintf "/tree/f%d" i) Dcache_types.File_kind.Regular)
    done;
    let rename src dst = ignore (ok "mv" (Dlfs.rename_dir t src dst)) in
    let mv = ping_pong rename "/tree" "/moved" in
    fun () -> per_op ~vclock:clock ~iters:2 mv
  in
  let dcache_rename config descendants =
    let env = W.Env.ram config in
    let p = env.W.Env.proc in
    ok "top" (S.mkdir_p p "/tree");
    for i = 0 to descendants - 1 do
      ok "f" (S.write_file p (Printf.sprintf "/tree/f%d" i) "x")
    done;
    (* cache all descendants *)
    ignore (W.Apps.du p ~root:"/tree");
    let mv = ping_pong (fun src dst -> ok "mv" (S.rename p src dst)) "/tree" "/moved" in
    fun () -> per_op ~iters:2 mv
  in
  let t =
    table "rename_hashing"
      [ col ~left:true 12 "descendants" "descendants"; col 12 "baseline us" "baseline_us";
        col 12 "in-mem us" "optimized_us"; col 14 "DLFS disk us" "dlfs_us" ]
  in
  List.iter
    (fun n ->
      let arms = [ dcache_rename Config.baseline n; dcache_rename Config.optimized n; dlfs_rename n ] in
      row t (C n :: List.map (fun s -> M (us s)) (trials arms)))
    [ 10; 100; 1000 ];

  subheader "iBench-like trace replay (15% path lookups, 85% other syscalls)";
  let replay config =
    let env = W.Env.ram config in
    let p = env.W.Env.proc in
    let m = W.Tree_gen.build p ~root:"/src" (W.Tree_gen.source_tree ~scale:(scale ()) ()) in
    (* read-only mix so the trace replays identically every trial *)
    let mix = { W.Trace.ibench_like with W.Trace.open_write_w = 0; mutate_w = 0; other_w = 87 } in
    let trace =
      W.Trace.generate ~manifest:m ~mix ~events:(if !quick then 30000 else 150000) ~locality:0.6
        ~seed:17
    in
    fun () -> float_of_int (elapsed_ns (fun () -> ignore (W.Trace.replay p trace))) /. 1e6
  in
  let b, o = vs (replay Config.baseline) (replay Config.optimized) in
  let t =
    table "trace_replay"
      [ col ~left:true 34 "workload" "workload"; col ~dec:2 9 "unmod ms" "unmod_ms";
        col ~dec:2 9 "opt ms" "opt_ms"; gain_col ]
  in
  row t [ L "trace replay"; M b; M o; R (pct_gain ~base:b.median o.median) ];

  subheader "primary hash table occupancy (paper 6.5)";
  (* the paper reports 58% empty / 34% single-entry buckets on its testbed *)
  let env = W.Env.ram Config.optimized in
  let p = env.W.Env.proc in
  ignore (W.Tree_gen.build p ~root:"/src" (W.Tree_gen.source_tree ~scale:(scale ()) ()));
  ignore (W.Apps.du p ~root:"/src");
  let hist = Dcache_vfs.Dcache.bucket_occupancy (Kernel.dcache env.W.Env.kernel) in
  let total = Array.fold_left ( + ) 0 hist in
  let t =
    table "occupancy"
      [ col ~left:true 14 "bucket entries" "entries"; col 9 "buckets" "buckets";
        col ~suffix:"%" 7 "share" "share_pct" ]
  in
  Array.iteri
    (fun len count ->
      if count > 0 then
        row t
          [ L (Printf.sprintf "%s%d" (if len = Array.length hist - 1 then ">=" else "") len);
            C count; R (float_of_int count /. float_of_int total *. 100.0) ])
    hist;

  subheader "dot-dot semantics (Linux vs Plan 9 lexical, paper 4.2)";
  pattern_table "dotdot"
    [
      ("baseline", Config.baseline);
      ("optimized, Linux dot-dot", Config.optimized);
      ("optimized, lexical dot-dot", { Config.optimized with Config.dotdot = Config.Dotdot_lexical });
    ]
    [ lmbench_pattern "1-dotdot"; lmbench_pattern "4-dotdot" ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  header "Bechamel microbenchmarks (OLS ns/run estimates, monotonic clock)";
  let make_env config =
    let env = W.Env.ram config in
    W.Lmbench.setup env.W.Env.proc;
    env
  in
  let env_base = make_env Config.baseline in
  let env_opt = make_env Config.optimized in
  let open Bechamel in
  let stat_test name (env : W.Env.t) path =
    (* [open Bechamel] shadows our [S] alias with Bechamel.S *)
    let stat = Dcache_syscalls.Syscalls.stat in
    Test.make ~name (Staged.stage (fun () -> ignore (stat env.W.Env.proc path)))
  in
  let test =
    Test.make_grouped ~name:"stat"
      [
        stat_test "1comp/baseline" env_base "FFF";
        stat_test "1comp/optimized" env_opt "FFF";
        stat_test "8comp/baseline" env_base "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF";
        stat_test "8comp/optimized" env_opt "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF";
        stat_test "negative/baseline" env_base "XXX/YYY/ZZZ/NNN";
        stat_test "negative/optimized" env_opt "XXX/YYY/ZZZ/NNN";
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      instance raw
  in
  let t = table "estimates" [ col ~left:true 28 "test" "test"; col 12 "ns/run" "ns_per_run" ] in
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] -> row t [ L name; R est ]
         | Some _ | None -> row t [ L name; Nil ])

(* ------------------------------------------------------------------ *)
(* GC-aware allocation measurement                                     *)
(* ------------------------------------------------------------------ *)

(* Top-level so the probe loop passes a statically-allocated closure. *)
let alloc_within _mnt _dentry = Ok ()

let words_iters () = if !quick then 20_000 else 100_000

let alloc () =
  header "Allocation per lookup (Gc.minor_words delta over warm loops)";
  let iters = words_iters () in
  let make_env config =
    let env = W.Env.ram config in
    W.Lmbench.setup env.W.Env.proc;
    env
  in
  let env_base = make_env Config.baseline in
  let env_opt = make_env Config.optimized in
  (* The probe and in-place hasher rows gate CI: they must print 0.00. *)
  let zero t label f =
    let words = words_row t label ~iters f in
    exact (Printf.sprintf "%.2f" words = "0.00") "%s allocates" label
  in
  (* An optimized warm stat() builds the walk context (6 words) and the
     [Ok] around its attributes (2); more gates CI. *)
  let stat_words_max = 8.0 in
  subheader "stat() - syscall layer, warm caches";
  let t = words_table "stat" in
  List.iter
    (fun (kernel, (env : W.Env.t)) ->
      let words case path =
        let label = kernel ^ " " ^ case in
        (label, words_row t label ~iters (fun () -> ignore (S.stat env.W.Env.proc path)))
      in
      let one = words "1comp" "FFF" in
      let eight = words "8comp" "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF" in
      let negative = words "negative" "XXX/YYY/ZZZ/NNN" in
      if (Kernel.config env.W.Env.kernel).Config.fastpath then
        List.iter
          (fun (label, words) ->
            exact (words <= stat_words_max) "%s allocates more than %.0f words/op" label
              stat_words_max)
          [ one; eight; negative ]
      else
        (* The walk reads each component in place: a component costs no
           words, whatever the walk's fixed cost. *)
        exact
          (Printf.sprintf "%.2f" (snd eight) = Printf.sprintf "%.2f" (snd one))
          "%s allocates per component (%.2f words/op, %.2f at 1 component)" (fst eight)
          (snd eight) (snd one))
    [ ("baseline", env_base); ("optimized", env_opt) ];

  subheader "fastpath probe - Fastpath.lookup_into, warm DLHT hit (expect 0 words)";
  let fp = Kernel.fastpath env_opt.W.Env.kernel in
  (* The ctx is built once: per-call construction is the caller's cost, not
     the probe's (Proc.walk_ctx allocates a record). *)
  let ctx = Proc.walk_ctx env_opt.W.Env.proc in
  let t = words_table "probe" in
  List.iter
    (fun (label, path) ->
      zero t label (fun () -> ignore (Fastpath.lookup_into fp ctx path ~within:alloc_within)))
    [
      ("probe 1comp", "FFF");
      ("probe 8comp", "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF");
      ("probe negative", "XXX/YYY/ZZZ/NNN");
    ];

  subheader "path hashing - in-place scanner vs Path.split + feed_string";
  let key = Fastpath.key fp in
  let ms = Signature.mstate () in
  let sn = Signature.snaps ~slots:64 in
  let buf = Signature.buf () in
  let path = "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF" in
  let inplace path () =
    Signature.mstate_reset ms;
    Signature.snaps_reset sn;
    ignore
      (Signature.hash_path_into_rec key ms sn ~max_name:Dcache_vfs.Path.max_name path ~pos:0);
    Signature.finalize_into key ms buf
  in
  let listed () =
    match Dcache_vfs.Path.split path with
    | Error _ -> ()
    | Ok comps ->
      let state =
        List.fold_left
          (fun st comp ->
            match comp with
            | Dcache_vfs.Path.Cur | Dcache_vfs.Path.Up -> st
            | Dcache_vfs.Path.Name name ->
              Signature.feed_string key (Signature.feed_char key st '/') name)
          Signature.empty_state comps
      in
      ignore (Signature.finalize key state)
  in
  let t = words_table "hashing" in
  zero t "in-place hash_path_into_rec (8 comps)" (inplace path);
  zero t "in-place hash_path_into_rec (webserver)" (inplace "/www/d1024/doc00001.html");
  zero t "in-place hash_path_into_rec (1 x 200 B)" (inplace ("/" ^ String.make 200 'n'));
  ignore (words_row t "Path.split + feed_string (8 comps)" ~iters listed)

(* ------------------------------------------------------------------ *)
(* Fault injection: hook overhead and degraded-mode behaviour          *)
(* ------------------------------------------------------------------ *)

let faults () =
  header "Fault injection: disabled hooks are free, armed faults degrade honestly";
  subheader
    "disabled-hook overhead - warm fastpath probe over the simulated disk\n\
     (attaching an injector with every site Off must not change ns/op and\n\
     must keep the probe at 0 words/op)";
  let iters = words_iters () in
  let t = words_table "disabled_hooks" in
  let probe_row label (env : W.Env.t) =
    W.Lmbench.setup env.W.Env.proc;
    let fp = Kernel.fastpath env.W.Env.kernel in
    let ctx = Proc.walk_ctx env.W.Env.proc in
    ignore
      (words_row t label ~iters (fun () ->
           ignore
             (Fastpath.lookup_into fp ctx "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF" ~within:alloc_within)))
  in
  probe_row "fastpath probe, no injector" (W.Env.disk Config.optimized);
  let inj = Fault.create ~seed:42 () in
  probe_row "fastpath probe, injector attached (Off)" (W.Env.disk ~faults:inj Config.optimized);
  let idle_site = Fault.site inj "blockdev.read_eio" in
  ignore (words_row t "raw disarmed Fault.fire" ~iters (fun () -> ignore (Fault.fire idle_site)));

  subheader
    "warm lookup latency vs RPC loss rate (stat of /export/a/b/file, real +\n\
     virtual ns/op; each drop costs the 1ms client timeout plus exponential\n\
     backoff, and a give-up surfaces EIO instead of a stale answer)";
  let t =
    table "rpc_loss"
      [ col ~suffix:"%" 6 "loss" "loss_pct"; col ~left:true 26 "protocol" "protocol";
        col 12 "ns/op" "ns_per_op"; col 8 "lookups" "lookups"; col 6 "drops" "drops";
        col 7 "retries" "retries"; col 7 "giveups" "giveups"; col 5 "EIO" "eio" ]
  in
  List.iter
    (fun rate ->
      List.iter
        (fun (label, protocol) ->
          let clock = Vclock.create () in
          let inj = Fault.create ~seed:7 () in
          let server = Dcache_fs.Netfs.server ~faults:inj ~clock (Dcache_fs.Ramfs.create ()) in
          let kernel =
            Kernel.create ~config:Config.optimized
              ~root_fs:(Dcache_fs.Netfs.client ~protocol server) ()
          in
          let p = Proc.spawn kernel in
          ok "tree" (S.mkdir_p p "/export/a/b");
          ok "file" (S.write_file p "/export/a/b/file" "remote");
          ignore (S.stat p "/export/a/b/file");
          if rate > 0.0 then Fault.arm (Fault.site inj "netfs.drop") (Fault.Probability rate);
          Dcache_fs.Netfs.reset_rpc_stats server;
          let iters = if !quick then 400 else 2000 in
          let lookups = ref 0 and eio = ref 0 in
          let ns =
            latency ~vclock:clock ~iters (fun () ->
                incr lookups;
                match S.stat p "/export/a/b/file" with Ok _ -> () | Error _ -> incr eio)
          in
          let st = Dcache_fs.Netfs.rpc_stats server in
          row t
            [ R (rate *. 100.0); L label; M ns; C !lookups; C st.Dcache_fs.Netfs.rs_drops;
              C st.Dcache_fs.Netfs.rs_retries; C st.Dcache_fs.Netfs.rs_giveups; C !eio ])
        [
          ("stateless (NFS v2/3)", Dcache_fs.Netfs.Stateless);
          ("stateful (AFS model)", Dcache_fs.Netfs.Stateful);
        ])
    [ 0.0; 0.01; 0.05; 0.1 ];

  subheader
    "transient disk EIO - degraded mode: a 5% read-EIO campaign over\n\
     cold-cache lookups must propagate errors without polluting the cache\n\
     (negatives: none may be created, the paths exist; quarantined: expect 0)";
  let inj = Fault.create ~seed:9 () in
  let env = W.Env.disk ~faults:inj Config.optimized in
  W.Lmbench.setup env.W.Env.proc;
  W.Env.reset_measurement env;
  let site = Fault.site inj "blockdev.read_eio" in
  Fault.arm site (Fault.Probability 0.05);
  let p = env.W.Env.proc in
  let rounds = if !quick then 40 else 200 in
  let eio = ref 0 and okc = ref 0 in
  for _ = 1 to rounds do
    W.Env.drop_caches env;
    match S.stat p "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF" with
    | Ok _ -> incr okc
    | Error _ -> incr eio
  done;
  Fault.disarm site;
  let rep = Kernel.scrub env.W.Env.kernel in
  let k = env.W.Env.kernel in
  let t =
    table "eio_campaign"
      [ col 7 "lookups" "lookups"; col 5 "ok" "ok"; col 5 "EIO" "eio"; col 8 "injected" "injected";
        col 8 "arrivals" "arrivals"; col 9 "negatives" "negative_created";
        col 11 "no-populate" "fastpath_eio_no_populate"; col 11 "quar dcache" "dcache_quarantined";
        col 9 "quar dlht" "dlht_quarantined" ]
  in
  row t
    [ C rounds; C !okc; C !eio; C (Fault.injected site); C (Fault.arrivals site);
      C (count k Counters.negative_created); C (count k Counters.fastpath_eio_no_populate);
      C rep.Kernel.dcache_quarantined; C rep.Kernel.dlht_quarantined ]

(* ------------------------------------------------------------------ *)
(* Tracing & metrics: probe-site overhead and the observability surface *)
(* ------------------------------------------------------------------ *)

let trace () =
  header "Tracing & metrics (compiled in always; disarmed must cost ~a branch)";
  let iters = words_iters () in
  subheader "warm 8-component fastpath probe under each tracing mode";
  let env = W.Env.ram Config.optimized in
  W.Lmbench.setup env.W.Env.proc;
  let fp = Kernel.fastpath env.W.Env.kernel in
  let ctx = Proc.walk_ctx env.W.Env.proc in
  let f () =
    ignore (Fastpath.lookup_into fp ctx "XXX/YYY/ZZZ/AAA/BBB/CCC/DDD/FFF" ~within:alloc_within)
  in
  let t = words_table "probe_modes" in
  Utrace.reset ();
  Utrace.armed := false;
  let measure label = ignore (words_row t label ~iters f) in
  measure "probe, tracing disarmed (the default)";
  Utrace.armed := true;
  measure "probe, event ring armed (seq timestamps)";
  let tm = Kernel.timers env.W.Env.kernel in
  Timers.arm tm Timers.Lookups true;
  measure "probe, ring + lookup timers (12 clock reads)";
  Timers.arm tm Timers.Lookups false;
  ignore (words_row t "raw armed Trace.stamp" ~iters (fun () -> Utrace.stamp Utrace.ev_fast_hit 7));
  Utrace.armed := false;

  subheader
    "observability surface after a maildir-style workload (lookup timers armed:\n\
     deliveries, warm re-stats, negative probes, one rename + one chmod)";
  Utrace.reset ();
  let env = W.Env.ram Config.optimized in
  let tm = Kernel.timers env.W.Env.kernel in
  Utrace.armed := true;
  Timers.arm tm Timers.Lookups true;
  let p = env.W.Env.proc in
  ok "tree" (S.mkdir_p p "/mail/cur");
  for i = 1 to 50 do
    ok "deliver" (S.write_file p (Printf.sprintf "/mail/cur/m%d" i) "x")
  done;
  for _ = 1 to 20 do
    for i = 1 to 50 do
      ignore (S.stat p (Printf.sprintf "/mail/cur/m%d" i))
    done
  done;
  for _ = 1 to 200 do
    ignore (S.stat p "/mail/cur/absent")
  done;
  ok "rename" (S.rename p "/mail/cur/m1" "/mail/cur/m1.read");
  ok "chmod" (S.chmod p "/mail/cur" 0o700);
  for i = 2 to 50 do
    ignore (S.stat p (Printf.sprintf "/mail/cur/m%d" i))
  done;
  Utrace.armed := false;
  Timers.arm tm Timers.Lookups false;
  print_string (Timers.histograms_to_string tm);
  print_string (Dcache_syscalls.Kernel_procfs.causes_to_string env.W.Env.kernel);
  let t =
    table "ring"
      [ col 8 "recorded" "recorded"; col 7 "dropped" "dropped"; col 8 "capacity" "capacity";
        col 12 "chrome bytes" "dump_chrome_bytes" ]
  in
  row t
    [ C (Utrace.recorded ()); C (Utrace.dropped ()); C (Utrace.capacity ());
      C (String.length (Utrace.dump_chrome ())) ];
  Utrace.reset ()

(* ------------------------------------------------------------------ *)
(* Scale: warm-hit cost vs cached-tree size across DLHT resizes        *)
(* ------------------------------------------------------------------ *)

let scale_bench () =
  header
    "Scale - warm fastpath hit vs cached-tree size.  The DLHT starts at\n\
     256 buckets and doubles, in one write-locked rehash, each time it\n\
     passes two entries per bucket; flat ns/op across sizes shows the\n\
     growth keeps chains short where a fixed-size table would degrade with\n\
     load factor.  rehash_ms is the longest op that triggered a doubling\n\
     (the pause a one-shot rehash costs).  The run exits 1 unless every\n\
     size ends with a clean self-check, occupancy = population and at most\n\
     two entries per bucket.";
  let module D = Dcache_core.Dlht in
  let samples = 256 in
  put "initial_buckets" (Json.Num 256.);
  put "grow_load" (Json.Num (float_of_int D.grow_load));
  put "samples_per_size" (Json.Num (float_of_int samples));
  let t =
    table "sizes"
      [ col ~left:true 10 "dentries" "dentries"; col 10 "ns/op" "ns_per_op";
        col ~dec:2 10 "words/op" "words_per_op"; col 9 "buckets" "buckets";
        col 7 "maxchn" "longest_chain"; col ~dec:2 7 "meanchn" "mean_chain"; col 8 "resizes" "resizes";
        col 11 "population" "population"; col ~dec:2 10 "rehash_ms" "longest_rehash_ms" ]
  in
  let run_size exp =
    let n = 1 lsl exp in
    let config =
      {
        Config.optimized with
        Config.dlht_buckets = 256;
        (* tiny on purpose: every size crosses resize boundaries *)
        max_dentries = 1 lsl 22;
        (* no dcache eviction even at 2^20 files *)
      }
    in
    let env = W.Env.ram config in
    let p = env.W.Env.proc in
    (* The longest op that doubled the table: every setup op is timed, and
       an op counts as a rehash when the resize count moved under it. *)
    let resizes () =
      match D.of_namespace_opt p.Proc.ns with Some t -> D.resizes t | None -> 0
    in
    let rehash_ns = ref 0 in
    let timed f =
      let r0 = resizes () in
      let dt = elapsed_ns f in
      if resizes () <> r0 && dt > !rehash_ns then rehash_ns := dt
    in
    (* Fixed-width components: the probed path is the same byte length at
       every size, so ns/op differences are table effects, not hashing
       cost. *)
    let path i = Printf.sprintf "/scale/d%04x/f%05x" (i lsr 8) i in
    timed (fun () -> ok "root" (S.mkdir_p p "/scale"));
    for d = 0 to (n - 1) lsr 8 do
      timed (fun () -> ok "dir" (S.mkdir_p p (Printf.sprintf "/scale/d%04x" d)))
    done;
    for i = 0 to n - 1 do
      timed (fun () -> ok "file" (S.write_file p (path i) "x"))
    done;
    (* Creation walks don't publish to the DLHT; a stat of every file does,
       so the table really holds [n] entries, not just the probed sample. *)
    for i = 0 to n - 1 do
      timed (fun () -> ignore (ok "warm" (S.stat p (path i))))
    done;
    let fp = Kernel.fastpath env.W.Env.kernel in
    let ctx = Proc.walk_ctx p in
    let paths = Array.init samples (fun s -> path (s * (n / samples))) in
    Array.iter (fun q -> ignore (ok "warm" (S.stat p q))) paths;
    let idx = ref 0 in
    let f () =
      let i = !idx in
      idx := (i + 1) land (samples - 1);
      ignore (Fastpath.lookup_into fp ctx paths.(i) ~within:alloc_within)
    in
    f ();
    let words = Stats.minor_words_per_op ~iters:(words_iters ()) f in
    let ns = latency ~iters:(if !quick then 5_000 else 20_000) f in
    let dlht =
      match D.of_namespace_opt p.Proc.ns with
      | Some t -> t
      | None -> failwith "scale: no DLHT attached"
    in
    let occ = D.occupancy dlht in
    let population = D.population dlht in
    (* Exact invariants of the one-table DLHT, gated at every size. *)
    List.iter (fun msg -> exact false "at %d dentries: %s" n msg) (D.self_check dlht);
    exact (occ.D.occ_entries = population) "at %d dentries: occupancy counts %d entries, population %d"
      n occ.D.occ_entries population;
    exact (population <= D.grow_load * occ.D.occ_buckets)
      "at %d dentries: population %d over %d x %d buckets" n population D.grow_load occ.D.occ_buckets;
    row t
      [ C n; M ns; R words; C occ.D.occ_buckets; C occ.D.occ_longest;
        R (float_of_int occ.D.occ_entries /. float_of_int (max 1 occ.D.occ_used)); C (D.resizes dlht);
        C population; R (float_of_int !rehash_ns /. 1e6) ];
    (n, ns.median)
  in
  let results = List.map run_size (if !quick then [ 14; 16 ] else [ 14; 16; 18; 20 ]) in
  let (n0, ns0), (n1, ns1) = (List.hd results, List.hd (List.rev results)) in
  Printf.printf "ns/op at %d is %.2fx ns/op at %d (acceptance bound: 1.5x)\n" n1 (ns1 /. ns0) n0;
  put "ns_ratio_largest_over_smallest" (Json.Num (ns1 /. ns0))

(* ------------------------------------------------------------------ *)
(* Deepmiss: cold misses on deep paths — prefix-resumed slowpath (§3.5) *)
(* ------------------------------------------------------------------ *)

(* Sweep chain depth 4 → 32 and compare the optimized kernel against the
   same kernel with [prefix_resume] ablated: on a cold DLHT miss with warm
   ancestors, the resumed slowpath should execute O(suffix) walk components
   (counter-verified against [walk_components]) and resolve in a fraction
   of the from-root time that grows with depth.  A cold-tree control (drop
   all caches before every lookup) shows the shortcut costs nothing when
   there is no ancestor to resume from, and a negative-fast-fail pass
   measures the no-walk ENOENT verdict against the ablated walk. *)

let deepmiss () =
  header
    "Deepmiss - cold miss on a deep path, ancestors warm.  The resumed\n\
     slowpath restarts from the longest cached ancestor and walks only\n\
     the uncached suffix; the ablation (prefix_resume=false) re-walks\n\
     every component from the root.";
  let leaves = if !quick then 256 else 1024 in
  let rounds = if !quick then 3 else 5 in
  let cold_iters = if !quick then 24 else 64 in
  put "leaves" (Json.Num (float_of_int leaves));
  let t =
    table "depths"
      [ col ~left:true 6 "depth" "depth"; col 12 "miss ns/op" "miss_ns";
        col ~dec:2 12 "comps/op" "components_per_op"; col 9 "resumes" "resumes";
        col 12 "cold ns/op" "cold_tree_ns"; col 12 "negfail ns" "negfail_ns";
        col 10 "warm ns" "warm_hit_ns";
        col ~dec:2 9 "warm wds" "warm_hit_words"; col ~left:true 9 "walk" "walk" ]
  in
  let chain ~resume depth =
    let env = W.Env.ram { Config.optimized with Config.prefix_resume = resume } in
    let deep = "/" ^ String.concat "/" (List.init depth (Printf.sprintf "c%02d")) in
    ok "chain" (S.mkdir_p env.W.Env.proc deep);
    (* Built here, outside every timed loop: formatting a path per op
       would time the formatting and its garbage with the miss. *)
    let leaf = Array.init leaves (Printf.sprintf "%s/f%04d" deep) in
    Array.iter (fun path -> ok "leaf" (S.write_file env.W.Env.proc path "x")) leaf;
    (env, deep, leaf)
  in
  (* Warm-ancestor pass: purge, re-warm only the directory chain, then stat
     every leaf exactly once — each is a cold DLHT miss whose every
     ancestor is cached.  [walk_components] counts the slowpath work. *)
  let pass ((env : W.Env.t), deep, leaf) () =
    let p = env.W.Env.proc and k = env.W.Env.kernel in
    W.Env.drop_caches env;
    ignore (ok "warm chain" (S.stat p deep));
    let comp0 = count k Counters.walk_components in
    let i = ref 0 in
    let ns =
      per_op ~iters:leaves (fun () ->
          ignore (ok "miss" (S.stat p leaf.(!i)));
          incr i)
    in
    [ ns; float_of_int (count k Counters.walk_components - comp0) /. float_of_int leaves ]
  in
  let controls ((env : W.Env.t), deep, leaf) =
    let p = env.W.Env.proc and k = env.W.Env.kernel in
    let resumes = count k Counters.fastpath_prefix_resume in
    (* Cold-tree control: nothing cached at all, so there is no ancestor to
       resume from and both kernels pay the same from-root walk. *)
    let cold =
      trial (fun () ->
          let total = ref 0 in
          for i = 0 to cold_iters - 1 do
            W.Env.drop_caches env;
            let path = leaf.(i land (leaves - 1)) in
            let cold () = ignore (ok "cold" (S.stat p path)) in
            total := !total + elapsed_ns cold
          done;
          float_of_int !total /. float_of_int cold_iters)
    in
    (* Negative fast-fail: the deep dir becomes DIR_COMPLETE via readdir;
       probing fresh absent names then fails from the cached prefix alone
       (no walk, no write lock) where the ablation walks from the root.
       Every trial probes names no earlier trial touched. *)
    W.Env.drop_caches env;
    ignore (ok "warm chain" (S.stat p deep));
    ignore (ok "readdir" (S.readdir_path p deep));
    let neg0 = count k Counters.fastpath_prefix_negfail in
    let round = ref 0 in
    let neg =
      trial (fun () ->
          incr round;
          let absent = Array.init leaves (Printf.sprintf "%s/none%d_%04d" deep !round) in
          let i = ref 0 in
          per_op ~iters:leaves (fun () ->
              (match S.stat p absent.(!i) with
              | Error Errno.ENOENT -> ()
              | Ok _ -> failwith "deepmiss: absent name resolved"
              | Error e -> failwith ("deepmiss: " ^ Errno.to_string e));
              incr i))
    in
    let negfails = count k Counters.fastpath_prefix_negfail - neg0 in
    (* Warm-hit figures on a leaf of this chain: the snapshot recording
       rides on every probe, so this guards the scale bench's warm-hit
       ns/op and words/op (BENCH_scale.json) against regression. *)
    Array.iter (fun path -> ignore (ok "rewarm" (S.stat p path))) leaf;
    let fp = Kernel.fastpath k and ctx = Proc.walk_ctx p and warm_path = leaf.(0) in
    let f () = ignore (Fastpath.lookup_into fp ctx warm_path ~within:alloc_within) in
    f ();
    let words = Stats.minor_words_per_op ~iters:(words_iters ()) f in
    (resumes, cold, neg, negfails, latency ~iters:(if !quick then 5_000 else 20_000) f, words)
  in
  List.iter
    (fun depth ->
      let resumed = chain ~resume:true depth and from_root = chain ~resume:false depth in
      let misses = List.map spreads (runs ~n:rounds [ pass resumed; pass from_root ]) in
      let line walk miss (resumes, cold, neg, _, warm, words) =
        match miss with
        | [ ns; comps ] ->
          row t
            [ C depth; M ns; R comps.median; (if walk = "resumed" then C resumes else Nil); M cold;
              M neg; M warm; R words; L walk ];
          (ns.median, comps.median)
        | _ -> assert false
      in
      let ((r_resumes, _, _, r_negfails, _, _) as r) = controls resumed in
      let r_ns, r_comps = line "resumed" (List.hd misses) r in
      let f_ns, f_comps = line "from-root" (List.nth misses 1) (controls from_root) in
      (* Acceptance: at depth >= 16 the resumed miss executes slowpath work
         proportional to the uncached suffix (~1 component, against depth+1
         from the root) and resolves in at most half the from-root time. *)
      if depth >= 16 then begin
        Printf.printf
          "depth %d: resumed/from-root time %.2fx (bound 0.50), components %.2f vs %.2f\n" depth
          (r_ns /. f_ns) r_comps f_comps;
        loose (r_ns <= 0.5 *. f_ns) "resumed miss exceeded 50%% of the from-root time";
        loose (r_comps <= 2.0) "resumed miss walked %.2f components (expected ~1)" r_comps;
        loose (r_resumes > 0) "no prefix resumes recorded";
        loose (r_negfails > 0) "no negative fast-fails recorded"
      end)
    [ 4; 8; 16; 24; 32 ]

(* ------------------------------------------------------------------ *)
(* Churn: multi-writer mutation throughput — sharded path (§3.6)       *)
(* ------------------------------------------------------------------ *)

(* N writer domains churn create → cross-directory rename → unlink cycles,
   each through its own directory pair so their stripes never collide,
   while two reader domains measure warm-hit ns/op and words/op on an
   untouched directory mid-churn.  The same run repeats with
   [dcache_stripes = 0] — every mutation back through the global write
   lock — to measure what sharding buys: per-op, a sharded section is a
   lockless parent probe plus a stripe bracket instead of a write-locked
   walk, and across writers the stripe table removes the global-lock
   convoy.  Each writer count alternates the two modes trial by trial. *)

let churn () =
  header
    "Churn - multi-writer create/rename/unlink throughput.  sharded runs\n\
     use the stripe table (dcache_stripes=128); global runs force every\n\
     mutation through the single write lock (dcache_stripes=0).  Readers\n\
     measure warm lockless hits on an unrelated directory mid-churn.";
  let names_per_writer = 16 in
  let ops_per_writer = if !quick then 10_000 else 30_000 in
  let reader_iters = if !quick then 10_000 else 50_000 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host cores: %d%s\n" cores
    (if cores < 8 then
       "  (writer domains timeshare: the ratio below measures lock\n\
       \   discipline and reader interference, not parallel scaling)"
     else "");
  let stripes = Config.optimized.Config.dcache_stripes in
  put "stripes" (Json.Num (float_of_int stripes));
  put "ops_per_writer" (Json.Num (float_of_int ops_per_writer));
  (* One run: [churn ops/s; reader ns; reader words; sharded ops]. *)
  let run ~stripes ~writers () =
    let config = { Config.optimized with Config.dcache_stripes = stripes } in
    let env = W.Env.ram config in
    let p = env.W.Env.proc in
    ok "stable" (S.mkdir_p p "/stable");
    let stable = Array.init 8 (fun i -> Printf.sprintf "/stable/f%d" i) in
    Array.iter (fun f -> ok "stable file" (S.write_file p f "S")) stable;
    Array.iter (fun f -> ignore (ok "warm" (S.stat p f))) stable;
    let name w k phase =
      Printf.sprintf "/churn/%c%d/n%d" (if phase = 2 then 'b' else 'a') w k
    in
    for w = 0 to writers - 1 do
      ok "dirs" (S.mkdir_p p (Printf.sprintf "/churn/a%d" w));
      ok "dirs" (S.mkdir_p p (Printf.sprintf "/churn/b%d" w));
      (* Warm-up lap: cached negatives at both cycle endpoints keep every
         steady-state op on the sharded path. *)
      for k = 0 to names_per_writer - 1 do
        ok "warm create" (S.write_file p (name w k 0) "x");
        ok "warm rename" (S.rename p (name w k 1) (name w k 2));
        ok "warm unlink" (S.unlink p (name w k 2))
      done
    done;
    let fp = Kernel.fastpath env.W.Env.kernel in
    let reader_results = Array.make 2 (0.0, 0.0) in
    let stop = Atomic.make false in
    (* Readers run for the whole churn window — the mixed-load point of the
       sharded design: their warm hits never take a lock, so in sharded
       mode they cost the writers nothing, where in global mode every
       mutation invalidates the lockless probe, and a probe that keeps
       racing re-probes under the write lock.  ns/op and words/op are
       measured over each reader's first [reader_iters] probes. *)
    let readers =
      List.init 2 (fun r ->
          Domain.spawn (fun () ->
              let rp = Proc.fork p in
              let ctx = Proc.walk_ctx rp in
              let i = ref 0 in
              let f () =
                ignore (Fastpath.lookup_into fp ctx stable.(!i land 7) ~within:alloc_within);
                incr i
              in
              for _ = 1 to 64 do
                f ()
              done;
              let words = Stats.minor_words_per_op ~iters:reader_iters f in
              reader_results.(r) <- (per_op ~iters:reader_iters f, words);
              while not (Atomic.get stop) do
                f ()
              done))
    in
    (* The clock brackets spawn-to-join of the writers (readers are already
       live), so ops/s is honest even when domains timeshare few cores. *)
    let writer w () =
      let wp = Proc.fork p in
      let phase = Array.make names_per_writer 0 in
      for i = 0 to ops_per_writer - 1 do
        let k = i land (names_per_writer - 1) in
        (match phase.(k) with
        | 0 -> (
          (* touch: the create is the measured mutation *)
          match S.openf wp (name w k 0) [ Proc.O_CREAT; Proc.O_WRONLY ] with
          | Ok fd -> ignore (S.close wp fd)
          | Error _ -> ())
        | 1 -> ignore (S.rename wp (name w k 1) (name w k 2))
        | _ -> ignore (S.unlink wp (name w k 2)));
        phase.(k) <- (phase.(k) + 1) mod 3
      done
    in
    let ns =
      elapsed_ns (fun () ->
          List.iter Domain.join (List.init writers (fun w -> Domain.spawn (writer w))))
    in
    Atomic.set stop true;
    List.iter Domain.join readers;
    let k = env.W.Env.kernel in
    [ float_of_int (writers * ops_per_writer) /. (float_of_int ns /. 1e9);
      (fst reader_results.(0) +. fst reader_results.(1)) /. 2.0;
      (snd reader_results.(0) +. snd reader_results.(1)) /. 2.0;
      float_of_int
        (count k Counters.sharded_create + count k Counters.sharded_rename
       + count k Counters.sharded_unlink) ]
  in
  let writer_counts = [ 1; 2; 4; 8 ] in
  let results =
    List.map
      (fun writers ->
        List.map spreads (runs [ run ~stripes ~writers; run ~stripes:0 ~writers ]))
      writer_counts
  in
  let t =
    table "runs"
      [ col ~left:true 8 "mode" "mode"; col 8 "writers" "writers";
        col ~dec:0 14 "churn ops/s" "churn_ops_per_s";
        col 12 "reader ns" "reader_warm_ns"; col ~dec:2 12 "reader wds" "reader_warm_words";
        col ~dec:0 13 "sharded ops" "sharded_ops" ]
  in
  List.iteri
    (fun mode label ->
      List.iter2
        (fun writers arms ->
          match List.nth arms mode with
          | [ ops; rd_ns; rd_words; sharded ] ->
            row t [ L label; C writers; M ops; M rd_ns; R rd_words.median; R sharded.median ]
          | _ -> assert false)
        writer_counts results)
    [ "sharded"; "global" ];
  let ops8 mode = (List.hd (List.nth (List.nth results 3) mode)).median in
  let ratio8 = if ops8 1 > 0.0 then ops8 0 /. ops8 1 else 0.0 in
  Printf.printf "8 writers: sharded/global throughput %.2fx (acceptance bound: 2.5x)\n" ratio8;
  loose (ratio8 >= 2.5) "sharded churn below the 2.5x bound";
  put "throughput_ratio_8_writers" (Json.Num ratio8);
  if cores = 1 then
    put "host_caveat"
      (Json.Str
         "single-core host: writer domains timeshare, so the 8-writer ratio measures lock \
          discipline (convoy avoidance), not parallel scaling; the >= 2.5x bound presumes a \
          multicore host")

(* ------------------------------------------------------------------ *)
(* Coherence: N stateful clients under a churn writer — leases (§3.7)  *)
(* ------------------------------------------------------------------ *)

(* Three phases.  (1) Warm live-lease hits on stable files: the lease gate
   sits on the lockless commit path, so ns/op and words/op must be within
   noise of the local-fs scale bench — and the RPC count stays zero.
   (2) A churn-mix window: a writer client rewrites/replaces files while
   readers stat a hot/churn mix; p50 absorbs the live-lease hits, p99 the
   lease fallbacks, break-driven evictions and revalidation round trips.
   (3) A fault-storm staleness audit at a short ttl: drops, partitions and
   crash/restarts, every successful reader stat checked against the
   backing store's ground truth — zero positives older than ttl + skew. *)

let coherence () =
  header
    "Coherence - stateful clients under a churn writer (leases, §3.7).\n\
     Live-lease warm hits must stay lockless/allocation-free; the\n\
     staleness audit must find zero positives older than ttl + skew.";
  let module Netfs = Dcache_fs.Netfs in
  let module Attr = Dcache_types.Attr in
  let cores = Domain.recommended_domain_count () in
  let n_clients = 4 in
  let churn_files = 32 in
  let warm_iters = words_iters () in
  let warm_samples_n = if !quick then 20_000 else 50_000 in
  let churn_rounds = if !quick then 300 else 1_500 in
  Printf.printf "host cores: %d, clients: %d\n" cores n_clients;

  (* --- fault-free server with the canonical lease figures --- *)
  let clock = Vclock.create () in
  let backing = Dcache_fs.Ramfs.create () in
  let server = Netfs.server ~rpc_latency_ns:120_000 ~clock backing in
  let mk_client () =
    let c, fs = Netfs.connect_fs server in
    let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
    (c, kernel, Proc.spawn kernel)
  in
  let readers = Array.init n_clients (fun _ -> mk_client ()) in
  let _, _, wp = mk_client () in
  ok "tree" (S.mkdir_p wp "/export/hot");
  ok "tree" (S.mkdir_p wp "/export/churn");
  let hot = Array.init 8 (fun i -> Printf.sprintf "/export/hot/s%d" i) in
  Array.iter (fun f -> ok "hot file" (S.write_file wp f "S")) hot;
  let churn_path i = Printf.sprintf "/export/churn/c%d" (i mod churn_files) in
  for i = 0 to churn_files - 1 do
    ok "churn file" (S.write_file wp (churn_path i) "v0")
  done;
  put "clients" (Json.Num (float_of_int n_clients));
  put "rpc_latency_ns" (Json.Num 120000.);
  put "lease_ttl_ns" (Json.Num (float_of_int (Netfs.lease_ttl_ns server)));
  put "lease_skew_ns" (Json.Num (float_of_int (Netfs.lease_skew_ns server)));
  put "grace_ns" (Json.Num (float_of_int (Netfs.grace_ns server)));
  (* ino -> path map for precise per-client break deliveries, refreshed
     from the backing store after each writer op. *)
  let ino_path = Hashtbl.create 64 in
  let churn_dir_ino =
    let export =
      ok "lookup export"
        (backing.Dcache_fs.Fs_intf.lookup backing.Dcache_fs.Fs_intf.root_ino "export")
    in
    (ok "lookup churn" (backing.Dcache_fs.Fs_intf.lookup export.Attr.ino "churn")).Attr.ino
  in
  let refresh_ino_map () =
    Hashtbl.reset ino_path;
    for i = 0 to churn_files - 1 do
      match backing.Dcache_fs.Fs_intf.lookup churn_dir_ino (Printf.sprintf "c%d" i) with
      | Ok a -> Hashtbl.replace ino_path a.Attr.ino (churn_path i)
      | Error _ -> ()
    done
  in
  refresh_ino_map ();
  Array.iter
    (fun (c, _, p) ->
      Netfs.set_invalidate c (fun ino ->
          match Hashtbl.find_opt ino_path ino with
          | Some path -> ignore (S.invalidate_path p path)
          | None -> ());
      Array.iter (fun f -> ignore (ok "warm hot" (S.stat p f))) hot;
      for i = 0 to churn_files - 1 do
        ignore (ok "warm churn" (S.stat p (churn_path i)))
      done)
    readers;

  (* --- phase 1: warm live-lease hits --- *)
  let hot_probe kernel p =
    let fp = Kernel.fastpath kernel and ctx = Proc.walk_ctx p and i = ref 0 in
    fun () ->
      ignore (Fastpath.lookup_into fp ctx hot.(!i land 7) ~within:alloc_within);
      incr i
  in
  let _, k0, p0 = readers.(0) in
  let probe = hot_probe k0 p0 in
  probe ();
  Netfs.reset_rpc_count server;
  let warm_words = Stats.minor_words_per_op ~iters:warm_iters probe in
  let warm = latency ~iters:warm_iters probe in
  let samples = Array.init warm_samples_n (fun _ -> float_of_int (elapsed_ns probe)) in
  let warm_rpcs = Netfs.rpc_count server in
  (* Same-run control: the identical probe over a local ramfs (no lease
     gate).  The gate's cost is the ratio against this, free of cross-run
     machine noise. *)
  let control =
    let kernel = Kernel.create ~config:Config.optimized ~root_fs:(Dcache_fs.Ramfs.create ()) () in
    let p = Proc.spawn kernel in
    ok "control tree" (S.mkdir_p p "/export/hot");
    Array.iter (fun f -> ok "control file" (S.write_file p f "S")) hot;
    Array.iter (fun f -> ignore (ok "control warm" (S.stat p f))) hot;
    latency ~iters:warm_iters (hot_probe kernel p)
  in
  let t =
    table "warm_live_lease"
      [ col 10 "mean ns" "ns_mean"; col 11 "control ns" "local_control_ns_mean";
        col ~dec:0 8 "p50 ns" "ns_p50";
        col ~dec:0 8 "p99 ns" "ns_p99"; col ~dec:2 9 "words/op" "words_per_op"; col 5 "RPCs" "rpcs" ]
  in
  row t
    [ M warm; M control; R (Stats.percentile samples 50.0); R (Stats.percentile samples 99.0);
      R warm_words; C warm_rpcs ];
  loose (warm_words <= 0.0) "live-lease warm hit allocated";
  loose (warm_rpcs = 0) "live-lease warm hit generated RPCs";

  (* --- phase 2: churn mix --- *)
  let total id = Array.fold_left (fun acc (_, k, _) -> acc + count k id) 0 readers in
  let fallbacks0 = total Counters.fastpath_lease_fallback in
  let cb0 = total Counters.sharded_cb_invalidate in
  let mix = Array.make (churn_rounds * n_clients * 2) 0.0 in
  let mi = ref 0 in
  let wseed = ref 12345 in
  let wnext bound =
    wseed := ((!wseed * 1103515245) + 12345) land 0x3FFFFFFF;
    !wseed mod bound
  in
  for round = 0 to churn_rounds - 1 do
    (* the churn writer: rewrite in place, or replace (unlink + recreate) *)
    let f = churn_path (wnext churn_files) in
    (match wnext 3 with
    | 0 -> ok "rewrite" (S.write_file wp f (String.make (1 + wnext 64) 'w'))
    | 1 ->
      ignore (S.unlink wp f);
      ok "recreate" (S.write_file wp f "r")
    | _ -> ok "touch" (S.write_file wp f "t"));
    refresh_ino_map ();
    Array.iter
      (fun (_, _, p) ->
        let time_stat path =
          mix.(!mi) <- float_of_int (elapsed_ns (fun () -> ignore (S.stat p path)));
          incr mi
        in
        time_stat hot.(round land 7);
        time_stat (churn_path (round + wnext churn_files)))
      readers
  done;
  let breaks =
    List.fold_left
      (fun acc c -> acc + (Netfs.lease_stats server c).Netfs.ls_breaks)
      0 (Netfs.clients server)
  in
  Printf.printf "churn mix (%d rounds x %d clients):\n" churn_rounds n_clients;
  let t =
    table "churn_mix"
      [ col 6 "rounds" "rounds"; col ~dec:0 8 "p50 ns" "ns_p50"; col ~dec:0 8 "p99 ns" "ns_p99";
        col 9 "fallbacks" "lease_fallbacks"; col 6 "breaks" "breaks_delivered";
        col 12 "cb evictions" "sharded_cb_invalidates" ]
  in
  row t
    [ C churn_rounds; R (Stats.percentile mix 50.0); R (Stats.percentile mix 99.0);
      C (total Counters.fastpath_lease_fallback - fallbacks0); C breaks;
      C (total Counters.sharded_cb_invalidate - cb0) ];

  (* --- chrome-trace capture (§3.8): one traced break window ---

     The writer rewrites a hot file with the profiler armed.  Hot inos are
     not in the readers' invalidate map, so their dentries stay warm and
     the re-stat is rejected by the lease gate itself — the gate miss
     consumes the recorded breaker span and stamps the cross-client link,
     which [dump_chrome] renders as a connected flow.  The dump is the CI
     artifact. *)
  Utrace.reset ();
  Utrace.armed := true;
  ok "traced break write" (S.write_file wp hot.(0) "traced");
  Array.iter (fun (_, _, p) -> ignore (S.stat p hot.(0))) readers;
  Utrace.armed := false;
  let links = ref 0 in
  Utrace.iter_events (fun _ _ ev _ _ -> if ev = Utrace.ev_span_link then incr links);
  let dump = Utrace.dump_chrome () in
  let oc = open_out "BENCH_coherence_trace.json" in
  output_string oc dump;
  close_out oc;
  Printf.printf "wrote BENCH_coherence_trace.json (%d bytes, %d events, %d cross-client flows)\n"
    (String.length dump) (min (Utrace.recorded ()) (Utrace.capacity ())) !links;
  loose (!links > 0) "no cross-client span links captured";
  Utrace.reset ();

  (* --- phase 3: fault-storm staleness audit (short ttl) --- *)
  let ttl = 2_000_000 and skew = 200_000 in
  let audit_steps = if !quick then 600 else 3_000 in
  let aclock = Vclock.create () in
  let abacking = Dcache_fs.Ramfs.create () in
  let inj = Fault.create ~seed:1 () in
  let aserver =
    Netfs.server ~rpc_latency_ns:1000 ~faults:inj ~lease_ttl_ns:ttl ~grace_ns:(ttl + skew)
      ~skew_ns:skew ~clock:aclock abacking
  in
  let _, rfs = Netfs.connect_fs aserver in
  let rp = Proc.spawn (Kernel.create ~config:Config.optimized ~root_fs:rfs ()) in
  let _, wfs = Netfs.connect_fs aserver in
  let awp = Proc.spawn (Kernel.create ~config:Config.optimized ~root_fs:wfs ()) in
  ok "audit tree" (S.mkdir_p awp "/export");
  let apaths = Array.init 6 (fun i -> Printf.sprintf "/export/f%d" i) in
  let adir =
    (ok "audit dir"
       (abacking.Dcache_fs.Fs_intf.lookup abacking.Dcache_fs.Fs_intf.root_ino "export"))
      .Attr.ino
  in
  let truth = Array.map (fun _ -> (false, -1, -1)) apaths in
  let t_change = Array.map (fun _ -> 0L) apaths in
  let probe_truth () =
    Array.iteri
      (fun i _ ->
        let now_state =
          match abacking.Dcache_fs.Fs_intf.lookup adir (Printf.sprintf "f%d" i) with
          | Ok a -> (true, a.Attr.ino, a.Attr.size)
          | Error _ -> (false, -1, -1)
        in
        if now_state <> truth.(i) then begin
          truth.(i) <- now_state;
          t_change.(i) <- Vclock.elapsed_ns aclock
        end)
      apaths
  in
  probe_truth ();
  Fault.arm (Fault.site inj "netfs.drop") (Fault.Probability 0.15);
  Fault.arm (Fault.site inj "netfs.partition") (Fault.Probability 0.1);
  let bound = Int64.of_int (ttl + skew) in
  let audited = ref 0 and violations = ref 0 in
  let aprng = Prng.create 99 in
  for step = 1 to audit_steps do
    if step mod 100 = 0 then Fault.arm (Fault.site inj "netfs.crash") (Fault.Nth 1);
    let wi = Prng.int aprng (Array.length apaths) in
    (match Prng.int aprng 4 with
    | 0 -> ignore (S.write_file awp apaths.(wi) (String.make (1 + Prng.int aprng 32) 'w'))
    | 1 -> ignore (S.unlink awp apaths.(wi))
    | 2 -> ignore (S.write_file awp apaths.(wi) "fresh")
    | _ -> ());
    probe_truth ();
    Vclock.charge aclock (Int64.of_int (Prng.int aprng 400_000));
    let ri = Prng.int aprng (Array.length apaths) in
    let t_before = Vclock.elapsed_ns aclock in
    match S.stat rp apaths.(ri) with
    | Ok attr ->
      incr audited;
      let present, tino, tsize = truth.(ri) in
      let age = Int64.sub t_before t_change.(ri) in
      if
        Int64.compare age bound > 0
        && ((not present) || tino <> attr.Attr.ino || tsize <> attr.Attr.size)
      then incr violations
    | Error _ -> ()
  done;
  let ast = Netfs.rpc_stats aserver in
  Printf.printf "staleness audit (seed 1):\n";
  let t =
    table "staleness_audit"
      [ col 6 "steps" "steps"; col 8 "audited" "audited_positives"; col 10 "violations" "violations";
        col 9 "bound ns" "bound_ns"; col 7 "crashes" "crashes"; col 10 "partitions" "partitions";
        col 6 "drops" "drops"; col 7 "giveups" "giveups" ]
  in
  row t
    [ C audit_steps; C !audited; C !violations; C (Int64.to_int bound); C ast.Netfs.rs_crashes;
      C ast.Netfs.rs_partitions; C ast.Netfs.rs_drops; C ast.Netfs.rs_giveups ];
  loose (!violations = 0) "staleness bound violated"

(* ------------------------------------------------------------------ *)
(* Profile: §3.8 profiler overhead — armed vs disarmed warm hits       *)
(* ------------------------------------------------------------------ *)

(* Two measurements, each disarmed then armed ([Trace.armed]: ring and
   spans; the kernel's timers stay off — clock reads are armed
   separately):

   - the raw warm fastpath probe, which pays the ring stamp when armed,
     and must keep its zero-allocation discipline;
   - the full stat syscall, which additionally mints a span per entry.

   The acceptance bound: armed costs within 10% of disarmed. *)

let profile () =
  header
    "Profile - request-scoped spans (§3.8).\n\
     Armed (ring + spans, no timers) vs disarmed; the armed warm hit\n\
     must stay allocation-free and within 10% of the disarmed cost.";
  let iters = if !quick then 50_000 else 200_000 in
  let env = W.Env.ram Config.optimized in
  let p = env.W.Env.proc in
  let n_dirs = 8 in
  (* Representative depth (8 components, like the lmbench-style warm probe)
     and grouped by directory: consecutive probes stay in one directory for
     a few operations, the skew every real lookup trace shows. *)
  let paths =
    Array.init (n_dirs * 4) (fun i -> Printf.sprintf "/prof/a/b/c/d/e/d%d/f%d" (i / 4) (i mod 4))
  in
  for d = 0 to n_dirs - 1 do
    ok "dir" (S.mkdir_p p (Printf.sprintf "/prof/a/b/c/d/e/d%d" d))
  done;
  Array.iter (fun f -> ok "file" (S.write_file p f "x")) paths;
  Array.iter (fun f -> ignore (ok "warm" (S.stat p f))) paths;
  let fp = Kernel.fastpath env.W.Env.kernel in
  let ctx = Proc.walk_ctx env.W.Env.proc in
  let i = ref 0 in
  let probe () =
    ignore (Fastpath.lookup_into fp ctx paths.(!i land 31) ~within:alloc_within);
    incr i
  in
  let j = ref 0 in
  let syscall () =
    ignore (S.stat p paths.(!j land 31));
    incr j
  in
  Utrace.reset ();
  Utrace.armed := false;
  (* The host is noisy enough that a disarmed block followed by an armed
     block measures clock drift, not overhead.  Instead: many back-to-back
     disarmed/armed pairs (the driver alternates which half runs first),
     median of the per-pair ratios — drift hits both halves of a pair
     equally and cancels. *)
  let paired f =
    let half armed () =
      Utrace.armed := armed;
      per_op ~iters f
    in
    match runs ~n:(5 * repeats ()) [ half false; half true ] with
    | [ dis; arm ] ->
      Utrace.armed := false;
      let ratio = List.map2 (fun a d -> if d > 0.0 then a /. d else 1.0) arm dis in
      (spread dis, spread arm, ((spread ratio).median -. 1.0) *. 100.0)
    | _ -> assert false
  in
  let probe_dis, probe_arm, probe_pct = paired probe in
  let stat_dis, stat_arm, stat_pct = paired syscall in
  (* Raw per-hook costs, armed: what one stamp / one span mint actually
     spend. *)
  Utrace.armed := true;
  arm_rows
    (table "raw_armed" [ col ~left:true 34 "hook" "hook"; col 9 "ns" "ns" ])
    [
      ("Trace.stamp", fun () -> per_op ~iters (fun () -> Utrace.stamp Utrace.ev_fast_hit 7));
      ("Trace.span_enter", fun () -> per_op ~iters (fun () -> ignore (Utrace.span_enter ())));
    ];
  Utrace.armed := false;
  let words_iters = words_iters () in
  let probe_dis_words = Stats.minor_words_per_op ~iters:words_iters probe in
  Utrace.armed := true;
  let probe_arm_words = Stats.minor_words_per_op ~iters:words_iters probe in
  Utrace.armed := false;
  put "iters" (Json.Num (float_of_int iters));
  put "overhead_bound_pct" (Json.Num 10.0);
  let t =
    table "overhead"
      [ col ~left:true 34 "operation" "operation"; col 9 "disarmed" "disarmed_ns";
        col 9 "armed" "armed_ns"; col ~sign:true ~suffix:"%" 8 "overhead" "overhead_pct";
        col ~dec:2 9 "dis wds" "disarmed_words"; col ~dec:2 9 "arm wds" "armed_words" ]
  in
  row t
    [ L "warm fastpath probe"; M probe_dis; M probe_arm; R probe_pct; R probe_dis_words;
      R probe_arm_words ];
  row t [ L "stat syscall (span minted)"; M stat_dis; M stat_arm; R stat_pct; Nil; Nil ];
  loose (probe_arm_words <= 0.0) "armed warm probe allocated";
  loose (probe_pct <= 10.0 && stat_pct <= 10.0) "armed overhead above the 10%% bound";
  put "ring_recorded" (Json.Num (float_of_int (Utrace.recorded ())));
  Utrace.reset ()

(* ------------------------------------------------------------------ *)
(* Batch: vectored submission/completion front-end (§3.9)              *)
(* ------------------------------------------------------------------ *)

module Batch = Dcache_syscalls.Batch

(* Warm all-hit submissions against sequential stat over the same working
   set; a deep-miss group against N sequential misses (stripe and
   component accounting); open-loop Poisson sojourn percentiles per batch
   size over the webserver and maildir path populations. *)
let batch_bench () =
  header
    "Batch - vectored submission/completion (§3.9).  One seqcount window,\n\
     one span mint and one counter set amortized across a run of fastpath\n\
     probes; misses deferred, sorted, resolved under a single write-lock\n\
     acquisition by the same miss body a sequential lookup takes.";
  let sizes = [ 1; 8; 32; 128 ] in
  let files = 128 in
  let env = W.Env.ram Config.optimized in
  let p = env.W.Env.proc and k = env.W.Env.kernel in
  let dir = "/www" in
  W.Webserver.setup p ~dir ~files;
  let paths = Array.init files (fun i -> Printf.sprintf "%s/doc%05d.html" dir (i + 1)) in
  Array.iter (fun path -> ignore (ok "warm" (S.stat p path))) paths;
  put "files" (Json.Num (float_of_int files));

  subheader "warm all-hit throughput - sequential stat vs batched submit";
  let iters = words_iters () in
  let t =
    table "throughput"
      [ col ~left:true 8 "batch" "batch"; col 12 "seq ns/op" "seq_ns_per_op";
        col 12 "batch ns/op" "batch_ns_per_op"; col ~dec:2 ~suffix:"x" 9 "speedup" "speedup";
        col ~dec:3 11 "words/op" "words_per_op"; col ~dec:2 13 "windows/subm" "windows_per_submit" ]
  in
  List.iter
    (fun size ->
      (* both sides loop over the same [size]-path working set *)
      let idx = ref 0 in
      let seq_op () =
        ignore (S.stat p paths.(!idx));
        idx := (!idx + 1) mod size
      in
      let ring = Batch.create ~cap:size p in
      for k = 0 to size - 1 do
        ignore (Batch.push_stat ring paths.(k))
      done;
      let submit () = Batch.submit ring in
      let submits = max 64 (iters / size) in
      let seq, bat =
        vs
          (fun () -> per_op ~iters:(max 1000 (iters / 4)) seq_op)
          (fun () -> per_op ~iters:submits submit /. float_of_int size)
      in
      let words = Stats.minor_words_per_op ~iters:submits submit /. float_of_int size in
      let s0 = count k Counters.batch_submit and w0 = count k Counters.batch_windows in
      for _ = 1 to 100 do
        submit ()
      done;
      let windows_per_submit =
        float_of_int (count k Counters.batch_windows - w0)
        /. float_of_int (max 1 (count k Counters.batch_submit - s0))
      in
      let speedup = seq.median /. bat.median in
      row t [ C size; M seq; M bat; R speedup; R words; R windows_per_submit ];
      if size >= 32 then begin
        loose (speedup >= 1.3) "batch %d speedup %.2fx below the 1.30x bound" size speedup;
        loose (words <= 0.005) "batch %d warm path allocates %.3f words/op" size words
      end)
    sizes;

  subheader "deep-miss group - one write-locked phase vs N sequential misses";
  let depth = 8 in
  let misses = if !quick then 32 else 64 in
  put "deep_miss_depth" (Json.Num (float_of_int depth));
  put "deep_misses" (Json.Num (float_of_int misses));
  let deep = "/" ^ String.concat "/" (List.init depth (Printf.sprintf "m%02d")) in
  ok "chain" (S.mkdir_p p deep);
  let leaves = Array.init misses (fun i -> Printf.sprintf "%s/leaf%03d" deep i) in
  Array.iter (fun leaf -> ok "leaf" (S.write_file p leaf "x")) leaves;
  let stripe_acquired () =
    let dc =
      match Dcache_vfs.Dcache.stripes (Kernel.dcache k) with
      | Some tab -> fst (Dcache_util.Locktab.totals tab)
      | None -> 0
    in
    let dl =
      match Dcache_core.Dlht.of_namespace_opt (Kernel.init_ns k) with
      | Some t -> (
        match Dcache_core.Dlht.locktab t with
        | Some tab -> fst (Dcache_util.Locktab.totals tab)
        | None -> 0)
      | None -> 0
    in
    dc + dl
  in
  let rwlocks () =
    let r, w = Dcache_util.Rwlock.acquisition_counts () in
    r + w
  in
  let t =
    table "deep_miss"
      [ col ~left:true 12 "" "submission"; col ~dec:3 12 "stripes/op" "stripes_per_op";
        col ~dec:3 14 "components/op" "components_per_op"; col ~dec:3 12 "rwlocks/op" "rwlocks_per_op" ]
  in
  let miss_pass label run =
    W.Env.drop_caches env;
    ignore (ok "warm chain" (S.stat p deep));
    let a0 = stripe_acquired () in
    let c0 = count k Counters.walk_components in
    let l0 = rwlocks () in
    run ();
    let per x = float_of_int x /. float_of_int misses in
    let stripes = per (stripe_acquired () - a0) in
    let comps = per (count k Counters.walk_components - c0) in
    let locks = per (rwlocks () - l0) in
    row t [ L label; R stripes; R comps; R locks ];
    (stripes, comps, locks)
  in
  let seq_stripes, seq_comps, seq_locks =
    miss_pass "sequential" (fun () ->
        Array.iter (fun leaf -> ignore (ok "miss" (S.stat p leaf))) leaves)
  in
  let miss_ring = Batch.create ~cap:misses p in
  let bat_stripes, bat_comps, bat_locks =
    miss_pass "batched" (fun () ->
        Batch.reset miss_ring;
        Array.iter (fun leaf -> ignore (Batch.push_stat miss_ring leaf)) leaves;
        Batch.submit miss_ring;
        for k = 0 to misses - 1 do
          if not (Batch.ok miss_ring k) then failwith "batch: deep miss failed"
        done)
  in
  (* Both resolve each miss with the same write-locked body, so stripes and
     components per op are equal by construction; what the batch saves is
     write-lock acquisitions — one per group instead of one per miss. *)
  loose (bat_stripes = seq_stripes) "batched misses took %.3f stripes/op (sequential %.3f)"
    bat_stripes seq_stripes;
  loose (bat_comps = seq_comps) "batched misses walked %.3f components/op (sequential %.3f)"
    bat_comps seq_comps;
  loose (bat_locks < seq_locks) "batched misses took %.3f rwlocks/op (sequential %.3f)" bat_locks
    seq_locks;

  subheader "open-loop Poisson arrivals - per-op sojourn p50/p99 (virtual ns)";
  let mbox = W.Maildir.setup p ~root:"/mail" ~messages:(if !quick then 64 else 128) ~seed:7 in
  ignore (W.Maildir.run_ops p mbox ~ops:5 ~seed:1);
  let mail_paths =
    ok "mail readdir" (S.readdir_path p "/mail/cur")
    |> List.map (fun (e : Dcache_fs.Fs_intf.dirent) -> "/mail/cur/" ^ e.Dcache_fs.Fs_intf.name)
    |> Array.of_list
  in
  Array.iter (fun path -> ignore (ok "warm mail" (S.stat p path))) mail_paths;
  let batches = if !quick then 200 else 800 in
  let rate = 500_000.0 in
  put "open_loop_rate_per_s" (Json.Num rate);
  let t =
    table "open_loop"
      [ col ~left:true 12 "workload" "workload"; col 6 "batch" "batch"; col 8 "ops" "ops";
        col 12 "p50 ns" "p50_ns"; col 12 "p99 ns" "p99_ns"; col ~dec:0 12 "mean ns" "mean_ns" ]
  in
  List.iter
    (fun (wl, wl_paths) ->
      List.iter
        (fun size ->
          let n = Array.length wl_paths in
          let fill ring i = ignore (Batch.push_stat ring wl_paths.(i mod n)) in
          let ol =
            W.Runner.run_open_loop
              ~label:(Printf.sprintf "%s b=%d" wl size)
              ~seed:(size + 17) env ~rate_per_s:rate ~batch:size ~batches ~fill ()
          in
          row t
            [ L wl; C size; C ol.W.Runner.ol_ops; C ol.W.Runner.ol_p50_ns; C ol.W.Runner.ol_p99_ns;
              R ol.W.Runner.ol_mean_ns ])
        sizes)
    [ ("webserver", paths); ("maildir", mail_paths) ]

(* ------------------------------------------------------------------ *)
(* Listing: cache-fed readdir — promotion + dirent scratch (§5.1)      *)
(* ------------------------------------------------------------------ *)

(* The churn column: a 400-entry complete directory
   listed warm after 0, 1x, 4x and 16x its entry count in churn — renames
   to fresh names, unlink-and-recreate, and stats of absent names.  Every
   op leaves the entry count unchanged, so a listing that costs what it
   lists stays flat: the child list the fill walks holds the entries and
   nothing else.  Rows are cumulative on one directory. *)
let listing_churn () =
  subheader "warm listing under churn (400-entry complete directory)";
  let entries = 400 in
  let env = W.Env.ram Config.optimized in
  let p = env.W.Env.proc and k = env.W.Env.kernel in
  ok "mkdir" (S.mkdir p "/churn");
  let names = Array.init entries (Printf.sprintf "/churn/e%06d") in
  Array.iter (fun path -> ok "seed" (S.write_file p path "x")) names;
  let fresh = ref entries in
  let next_name () =
    incr fresh;
    Printf.sprintf "/churn/e%06d" !fresh
  in
  let churn ops =
    for i = 0 to ops - 1 do
      let slot = i mod entries in
      match i mod 3 with
      | 0 ->
        let dst = next_name () in
        ok "rename" (S.rename p names.(slot) dst);
        names.(slot) <- dst
      | 1 ->
        ok "unlink" (S.unlink p names.(slot));
        names.(slot) <- next_name ();
        ok "create" (S.write_file p names.(slot) "x")
      | _ -> (
        match S.stat p (next_name ()) with
        | Error Errno.ENOENT -> ()
        | Ok _ | Error _ -> failwith "listing churn: expected ENOENT")
    done
  in
  let fd = ok "open" (S.openf p "/churn" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
  let dir = (ok "fd" (Proc.find_fd p fd)).Proc.fd_ref.Dcache_vfs.Types.dentry in
  let t =
    table "churn"
      [ col ~left:true 8 "churn" "churn"; col 9 "entries" "entries"; col 9 "nodes" "visited_nodes";
        col 11 "warm ns" "warm_fill_ns"; col ~dec:2 10 "words/op" "warm_words_per_op" ]
  in
  let done_ops = ref 0 in
  List.map
    (fun factor ->
      churn ((factor * entries) - !done_ops);
      done_ops := factor * entries;
      let listed = S.readdir_fill p fd in
      let warm0 = count k Counters.readdir_scratch_warm in
      let fill () = ignore (S.readdir_fill p fd) in
      let ns = latency ~vclock:env.W.Env.vclock ~iters:(if !quick then 500 else 2000) fill in
      let words = Stats.minor_words_per_op ~iters:2000 fill in
      loose (count k Counters.readdir_scratch_warm <> warm0) "churned fill missed the warm path";
      let nodes = Dcache_util.Dlist.length dir.Dcache_vfs.Types.d_children in
      row t [ L (Printf.sprintf "%dx" factor); C listed; C nodes; M ns; R words ];
      (nodes, words))
    [ 0; 1; 4; 16 ]

(* A DIR_COMPLETE directory answers getdents from its cached children,
   and a warm fill through the per-process dirent scratch revalidates two
   seqcounts and copies names without allocating.  On the simulated disk
   the baseline re-parses on-disk dirent blocks on every listing, so the
   contrast is §5.1's: backend-fed listings against cache-fed ones, with
   the promotion path (fs-fed fill -> populate + set_complete under the
   parent stripe) exercised from a dropped cache. *)
let listing_bench () =
  header
    "Listing - cache-fed readdir (§5.1).  Warm DIR_COMPLETE fills served\n\
     from the per-process dirent scratch (seqcount-validated, 0 words/op)\n\
     vs the baseline's backend-fed listings on the simulated disk; cold\n\
     listings promote into the cache so the second call is already warm.";
  let backend size =
    let env = W.Env.disk Config.baseline in
    let dir = Printf.sprintf "/b%d" size in
    W.Webserver.setup env.W.Env.proc ~dir ~files:size;
    ignore (ok "warm" (S.readdir_path env.W.Env.proc dir));
    readdir_arm env ~iters:(max 50 (4000 / size)) dir
  in
  let t =
    table "runs"
      [ col ~left:true 8 "files" "files"; col 13 "backend ns" "backend_ns";
        col 13 "warm ns" "warm_fill_ns";
        col ~suffix:"x" 9 "speedup" "speedup"; col ~dec:2 10 "words/op" "warm_words_per_op";
        col 9 "promoted" "promotions" ]
  in
  let results =
    List.map
      (fun size ->
        let env = W.Env.disk Config.optimized in
        let p = env.W.Env.proc and k = env.W.Env.kernel in
        let dir = Printf.sprintf "/o%d" size in
        W.Webserver.setup p ~dir ~files:size;
        (* mkdir-born directories are complete from birth; drop everything
           so the first listing takes the fs-fed fill and promotes (§5.1). *)
        W.Env.drop_caches env;
        let promoted0 = count k Counters.readdir_promoted in
        ignore (ok "promote" (S.readdir_path p dir));
        let promoted = count k Counters.readdir_promoted - promoted0 in
        let fd = ok "open" (S.openf p dir [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
        let entries = S.readdir_fill p fd in
        let fill () = ignore (S.readdir_fill p fd) in
        let backend_ns, warm_ns =
          vs (backend size) (fun () ->
              per_op ~vclock:env.W.Env.vclock ~iters:(max 200 (20_000 / size)) fill)
        in
        let words = Stats.minor_words_per_op ~iters:2000 fill in
        let warm0 = count k Counters.readdir_scratch_warm in
        fill ();
        ok "close" (S.close p fd);
        loose
          (count k Counters.readdir_scratch_warm - warm0 >= 1)
          "steady-state fill missed the warm path";
        loose (entries >= size) "fill returned %d entries for %d files" entries size;
        let speedup = if warm_ns.median > 0.0 then backend_ns.median /. warm_ns.median else 0.0 in
        row t [ C size; M backend_ns; M warm_ns; R speedup; R words; C promoted ];
        (speedup, words))
      ([ 16; 64; 256 ] @ if !quick then [] else [ 1024 ])
  in
  let min_speedup = List.fold_left (fun acc (s, _) -> Float.min acc s) infinity results in
  let max_words = List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 results in
  Printf.printf "min speedup %.1fx (acceptance bound: 5x), max words/op %.2f (bound: 0.00)\n"
    min_speedup max_words;
  loose (min_speedup >= 5.0) "warm listing below the 5x bound";
  loose (max_words <= 0.0) "warm fill allocated";
  put "min_speedup" (Json.Num min_speedup);
  put "max_warm_words_per_op" (Json.Num max_words);
  (* The churn column's exact counts gate the run: churn may not make a
     warm listing of the same entries walk more nodes or allocate. *)
  match listing_churn () with
  | (nodes0, words0) :: _ as churn ->
    let nodes16, words16 = List.hd (List.rev churn) in
    exact
      (nodes16 = nodes0 && words16 = words0)
      "after churn the listing walks %d nodes (%.3f words/op), fresh %d (%.3f)" nodes16 words16
      nodes0 words0
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Createstorm: probe-free creates + bounded negative lists (§5.2/§6.3)*)
(* ------------------------------------------------------------------ *)

(* Phase 1 (untar shape): unique creates into one directory.  A complete
   parent's absence verdict is authoritative, so the optimized kernel
   skips the baseline's backend existence probe — on extfs that probe is
   a linear dirent-block scan that grows with the directory, so the gap
   widens as the storm runs.  Every trial storms a fresh kernel.  Phase 2
   (§6.3): sweep [neg_list_cap] under a skewed absent-name stat storm and
   report hit rate, evictions and the occupancy bound the per-stripe LRU
   lists enforce; every trial replays the same seeded storm on a fresh
   kernel, so the counts are the same in every trial. *)
let createstorm () =
  header
    "Createstorm - probe-free unique creates over a DIR_COMPLETE parent\n\
     (§5.2) and the §6.3 negative-list decay study: bounded per-stripe\n\
     LRU lists under an absent-name stat storm, swept over neg_list_cap.";
  let creates = if !quick then 3_000 else 12_000 in
  (* extfs directories top out at 12 direct blocks of dirents, so the
     full-scale storm spreads untar-style over several directories. *)
  let ndirs = (creates + 2_999) / 3_000 in
  let storm config () =
    let env = W.Env.disk config in
    let p = env.W.Env.proc and k = env.W.Env.kernel in
    for d = 0 to ndirs - 1 do
      ok "dir" (S.mkdir_p p (Printf.sprintf "/storm%d" d));
      ignore (ok "complete" (S.readdir_path p (Printf.sprintf "/storm%d" d)))
    done;
    let short0 = count k Counters.create_neg_shortcut in
    let result =
      W.Runner.run env (fun () ->
          for i = 0 to creates - 1 do
            let path = Printf.sprintf "/storm%d/u%06d" (i mod ndirs) i in
            match S.openf p path [ Proc.O_CREAT; Proc.O_WRONLY ] with
            | Ok fd -> ignore (S.close p fd)
            | Error e -> failwith ("storm create: " ^ Errno.to_string e)
          done)
    in
    [ float_of_int creates /. seconds result;
      float_of_int (count k Counters.create_neg_shortcut - short0) ]
  in
  subheader "unique-create throughput (complete parent)";
  put "creates" (Json.Num (float_of_int creates));
  let t =
    table "storm"
      [ col ~left:true 10 "kernel" "kernel"; col ~dec:0 14 "creates/s" "creates_per_s";
        col ~dec:0 14 "shortcuts" "create_neg_shortcuts" ]
  in
  let results = List.map spreads (runs [ storm Config.baseline; storm Config.optimized ]) in
  let medians =
    List.map2
      (fun label r ->
        match r with
        | [ ops; short ] ->
          row t [ L label; M ops; R short.median ];
          (ops.median, short.median)
        | _ -> assert false)
      [ "baseline"; "optimized" ] results
  in
  let (base_ops, _), (opt_ops, opt_short) = (List.hd medians, List.nth medians 1) in
  let ratio = if base_ops > 0.0 then opt_ops /. base_ops else 0.0 in
  Printf.printf "throughput ratio %.2fx (acceptance bound: 1.5x)\n" ratio;
  loose (ratio >= 1.5) "create storm below the 1.5x bound";
  loose (opt_short >= float_of_int creates) "only %.0f/%d creates took the probe-free shortcut"
    opt_short creates;
  put "throughput_ratio" (Json.Num ratio);

  subheader "negative-list decay (§6.3): absent-name storm vs neg_list_cap";
  let working_set = 512 in
  let probes = if !quick then 8_192 else 32_768 in
  let t =
    table "neg_sweep"
      [ col ~left:true 10 "cap" "cap"; col 10 "ns/op" "ns_per_op"; col ~suffix:"%" 8 "hit%" "hit_pct";
        col 10 "evicted" "evicted"; col 10 "resident" "resident"; col 9 "max list" "max_list" ]
  in
  let bounded =
    List.for_all
      (fun cap ->
        (* Completeness off: absent names must be answered by cached
           negatives (or a backend probe), not by the parent's verdict. *)
        let config =
          { Config.optimized with Config.dir_completeness = false; neg_list_cap = cap }
        in
        let counts = ref (0, 0, 0, 0) in
        let absent_storm () =
          let env = W.Env.disk config in
          let p = env.W.Env.proc and k = env.W.Env.kernel in
          ok "dir" (S.mkdir_p p "/pop");
          for i = 0 to 63 do
            ok "pop" (S.write_file p (Printf.sprintf "/pop/real%02d" i) "x")
          done;
          let rng = Prng.create (0x6e65 + cap) in
          let hits () = count k Counters.walk_negative_hit + count k Counters.fastpath_negative_hit in
          let hit0 = hits () in
          let result =
            W.Runner.run env (fun () ->
                for _ = 1 to probes do
                  (* cubed uniform: a skewed re-reference pattern the LRU
                     can exploit once the cap covers the hot set *)
                  let u = Prng.float rng 1.0 in
                  let idx = int_of_float (float_of_int working_set *. (u *. u *. u)) in
                  match S.stat p (Printf.sprintf "/pop/ghost%04d" idx) with
                  | Error Errno.ENOENT -> ()
                  | Ok _ | Error _ -> failwith "storm stat: expected ENOENT"
                done)
          in
          let occ = Dcache_vfs.Dcache.neg_occupancy (Kernel.dcache k) in
          counts :=
            ( hits () - hit0, count k Counters.neg_evicted, Array.fold_left ( + ) 0 occ,
              Array.fold_left max 0 occ );
          Int64.to_float result.W.Runner.total_ns /. float_of_int probes
        in
        let ns = trial absent_storm in
        let hits, evicted, resident, max_occ = !counts in
        loose (cap = 0 || max_occ <= cap) "list occupancy %d exceeds the cap %d" max_occ cap;
        row t
          [ L (if cap = 0 then "unbounded" else string_of_int cap); M ns;
            R (100.0 *. float_of_int hits /. float_of_int probes); C evicted; C resident; C max_occ ];
        cap = 0 || max_occ <= cap)
      [ 16; 64; 256; 1024; 0 ]
  in
  put "occupancy_bounded" (Json.Bool bounded)

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1); ("fig2", fig2); ("fig3", fig3); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("tab1", tab1); ("tab2", tab2);
    ("tab3", tab3); ("tab4", tab4); ("ablation", ablation); ("bechamel", bechamel);
    ("alloc", alloc); ("faults", faults); ("trace", trace); ("scale", scale_bench);
    ("deepmiss", deepmiss); ("churn", churn); ("coherence", coherence);
    ("profile", profile); ("batch", batch_bench); ("listing", listing_bench);
    ("createstorm", createstorm);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let flags, wanted = List.partition (String.starts_with ~prefix:"--") args in
  (* A mistyped flag (or --help) must not run every experiment and
     rewrite their BENCH files. *)
  (match List.filter (fun f -> not (List.mem f [ "--quick"; "--full"; "--list" ])) flags with
  | [] -> ()
  | unknown :: _ ->
    Printf.eprintf "unknown flag %S: the flags are --quick (default), --full and --list\n" unknown;
    exit 2);
  if List.mem "--full" flags then quick := false;
  if List.mem "--list" flags then begin
    List.iter (fun (name, _) -> print_endline name) experiments;
    exit 0
  end;
  let to_run =
    match wanted with
    | [] -> experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" name;
            exit 1)
        names
  in
  Printf.printf "dcache reproduction benchmarks - %s scale\n"
    (if !quick then "quick (use --full for paper-scale parameters)" else "full");
  List.iter (fun (id, f) -> Figure.run id f) to_run;
  exit !exit_code

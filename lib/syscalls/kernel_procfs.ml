module Pseudofs = Dcache_fs.Pseudofs
module Netfs = Dcache_fs.Netfs
module Config = Dcache_vfs.Config
module Dcache = Dcache_vfs.Dcache
module Fault = Dcache_util.Fault
module Trace = Dcache_util.Trace
module Timers = Dcache_util.Timers
module Lhist = Dcache_util.Stats.Lhist
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters

(* One [name value] line for a declared counter. *)
let counter_line kernel id =
  Printf.sprintf "%s %d\n" (Counter.name id) (Counter.get (Kernel.counters kernel) id)

(* DLHT load figures (init namespace) appended to dcache/stats.  These are
   gauges, not monotonic counters — population and chain lengths go up and
   down with churn — except [dlht_resizes] and [dlht_sigless_scans], which
   only grow.  t_procfs knows the [dlht_] prefix and cross-checks them
   against [Dlht.occupancy] instead of the counter snapshot. *)
let render_dlht kernel =
  match Dcache_core.Dlht.of_namespace_opt (Kernel.init_ns kernel) with
  | None -> "dlht_attached 0\n"
  | Some t ->
    let module Dlht = Dcache_core.Dlht in
    let occ = Dlht.occupancy t in
    String.concat "\n"
      [
        "dlht_attached 1";
        Printf.sprintf "dlht_population %d" (Dlht.population t);
        Printf.sprintf "dlht_buckets %d" occ.Dlht.occ_buckets;
        Printf.sprintf "dlht_used_buckets %d" occ.Dlht.occ_used;
        Printf.sprintf "dlht_longest_chain %d" occ.Dlht.occ_longest;
        Printf.sprintf "dlht_resizes %d" (Dlht.resizes t);
        Printf.sprintf "dlht_sigless_scans %d" (Dlht.sigless_scans t);
        "";
      ]

(* PCC gauges of the init namespace's root credential ({!Kernel.root_cred},
   the processes' default): the table's current capacity and its growth
   steps.  Zero before that credential's first lookup — a read never
   creates the table.  t_procfs knows the [pcc_] prefix too. *)
let render_pcc kernel =
  let capacity, grows =
    match Dcache_core.Pcc.of_cred_exn (Kernel.root_cred kernel) (Kernel.init_ns kernel) with
    | pcc -> (Dcache_core.Pcc.capacity pcc, Dcache_core.Pcc.grows pcc)
    | exception Not_found -> (0, 0)
  in
  Printf.sprintf "pcc_capacity %d\npcc_grows %d\n" capacity grows

let render_stats kernel () =
  Kernel.stats_snapshot kernel
  |> List.map (fun (name, value) -> Printf.sprintf "%s %d" name value)
  |> String.concat "\n"
  |> fun body -> render_dlht kernel ^ render_pcc kernel ^ body ^ "\n"

let render_summary kernel () =
  let dcache = Kernel.dcache kernel in
  let occupancy = Dcache.bucket_occupancy dcache in
  let total = Array.fold_left ( + ) 0 occupancy in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "dentries %d\n" (Dcache.dentry_count dcache);
  Printf.bprintf buf "invalidation_counter %d\n" (Dcache.invalidation_counter dcache);
  (* Prefix-resume depth gauges (§3.5): how many components each resumed
     walk skipped.  The full distribution lives in dcache/histograms
     ("class resume_depth"); these are the headline figures. *)
  let rd = Timers.get (Kernel.timers kernel) Timers.resume_depth in
  Printf.bprintf buf "resume_depth_n %d\n" (Lhist.count rd);
  Printf.bprintf buf "resume_depth_max %d\n" (Lhist.max_value rd);
  Printf.bprintf buf "resume_depth_mean %.1f\n" (Lhist.mean rd);
  Array.iteri
    (fun len count ->
      Printf.bprintf buf "buckets_len_%s%d %d (%.1f%%)\n"
        (if len = Array.length occupancy - 1 then "ge_" else "")
        len count
        (100.0 *. float_of_int count /. float_of_int (max 1 total)))
    occupancy;
  Buffer.contents buf

(* Per-stripe acquisition/contention figures for the sharded mutation
   path.  The header lines ([stripes N], [acquired], [contended]) give the
   aggregate; the per-stripe tail shows skew, which is the thing to watch
   when churn concentrates in few directories. *)
let render_stripes kernel () =
  match Dcache.stripes (Kernel.dcache kernel) with
  | None -> "stripes 0\n"
  | Some tab ->
    (* Residual global-write figures ride the sharded report: every
       [with_write] is a full-stop for the stripes, so the ratio of
       [global_write_acquired] to stripe acquisitions says how much of
       the mutation load still funnels through the big lock. *)
    Dcache_util.Locktab.to_string tab ^ counter_line kernel Counters.global_write_acquired

(* [dcache/neglists] is the negative-dentry book (§6.3): the per-stripe
   bound, eviction and invalidation tallies, and one occupancy line per
   stripe list so a create-storm's negative footprint can be audited from
   /proc alone. *)
let render_neglists kernel () =
  let d = Kernel.dcache kernel in
  let occ = Dcache.neg_occupancy d in
  let total = Array.fold_left ( + ) 0 occ in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "neg_list_cap %d\n" (Dcache.neg_list_cap d);
  Printf.bprintf buf "neg_lists %d\n" (Array.length occ);
  Printf.bprintf buf "neg_cached %d\n" total;
  List.iter
    (fun id -> Buffer.add_string buf (counter_line kernel id))
    Counters.[ neg_evicted; neg_gen_invalidations; walk_stale_negative; create_neg_shortcut ];
  Array.iteri (fun i n -> Printf.bprintf buf "neglist %d occupancy %d\n" i n) occ;
  Buffer.contents buf

let render_config kernel () =
  let c = Kernel.config kernel in
  String.concat "\n"
    [
      Printf.sprintf "fastpath %b" c.Config.fastpath;
      Printf.sprintf "pcc_entries %d" c.Config.pcc_entries;
      Printf.sprintf "dlht_buckets %d" c.Config.dlht_buckets;
      Printf.sprintf "sig_bits %d" c.Config.sig_bits;
      Printf.sprintf "symlink_aliases %b" c.Config.symlink_aliases;
      Printf.sprintf "dotdot %s"
        (match c.Config.dotdot with
        | Config.Dotdot_linux -> "linux"
        | Config.Dotdot_lexical -> "lexical");
      Printf.sprintf "prefix_resume %b" c.Config.prefix_resume;
      Printf.sprintf "dir_completeness %b" c.Config.dir_completeness;
      Printf.sprintf "aggressive_negative %b" c.Config.aggressive_negative;
      Printf.sprintf "deep_negative %b" c.Config.deep_negative;
      Printf.sprintf "dcache_buckets %d" c.Config.dcache_buckets;
      Printf.sprintf "dcache_stripes %d" c.Config.dcache_stripes;
      Printf.sprintf "neg_list_cap %d" c.Config.neg_list_cap;
      Printf.sprintf "max_dentries %d" c.Config.max_dentries;
      "";
    ]

(* --- observability files ---

   Every render closure reads live kernel / Trace / Fault / Netfs state at
   open time, so repeated reads see the current figures; formats are one
   [key value...] record per line so the t_procfs parser (and awk) can
   consume them. *)

let causes_to_string kernel = String.concat "" (List.map (counter_line kernel) Counters.causes)

(* [dcache/batch] is the vectored front-end's scoreboard (§3.9), read
   from this kernel's counters: ring traffic, how many validation windows the submissions actually paid for
   (windows/submit ≈ 1 is the amortization working), splits and phase-2
   deferrals and the sharded mkdir/rmdir counters. *)
let render_batch kernel () =
  let c = Counter.get (Kernel.counters kernel) in
  let submits = c Counters.batch_submit and windows = c Counters.batch_windows in
  String.concat ""
    [
      Printf.sprintf "batch_submits %d\n" submits;
      counter_line kernel Counters.batch_ops;
      counter_line kernel Counters.batch_windows;
      Printf.sprintf "batch_windows_per_submit %.2f\n"
        (float_of_int windows /. float_of_int (max 1 submits));
      Printf.sprintf "batch_splits %d\n" (c Counters.fastpath_batch_split);
      Printf.sprintf "batch_deferred %d\n" (c Counters.fastpath_batch_deferred);
      counter_line kernel Counters.sharded_mkdir;
      counter_line kernel Counters.sharded_rmdir;
    ]

let render_faults faults () =
  match faults with
  | None -> "no injector attached\n"
  | Some f ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "seed %d\n" (Fault.seed f);
    let sites = Fault.sites f in
    Printf.bprintf buf "sites %d\n" (List.length sites);
    List.iter
      (fun s ->
        Printf.bprintf buf "site %s schedule %s arrivals %d injected %d\n"
          (Fault.name s) (Fault.schedule_name s) (Fault.arrivals s)
          (Fault.injected s))
      sites;
    Buffer.contents buf

(* [netfs/rpc] enumerates the server's figures exactly — including the
   zero-traffic case (a server with no RPCs yet renders all-zero lines, not
   the "no … attached" placeholder reserved for a genuinely absent server)
   and the per-site fault arrival/injection tallies, so a fault-schedule
   run can be audited from /proc alone. *)
let render_netfs_rpc netfs () =
  match netfs with
  | None -> "no netfs server attached\n"
  | Some srv ->
    let s = Netfs.rpc_stats srv in
    let buf = Buffer.create 256 in
    Printf.bprintf buf "rpcs %d\n" (Netfs.rpc_count srv);
    Printf.bprintf buf "drops %d\n" s.Netfs.rs_drops;
    Printf.bprintf buf "delays %d\n" s.Netfs.rs_delays;
    Printf.bprintf buf "retries %d\n" s.Netfs.rs_retries;
    Printf.bprintf buf "giveups %d\n" s.Netfs.rs_giveups;
    Printf.bprintf buf "drc_hits %d\n" s.Netfs.rs_drc_hits;
    Printf.bprintf buf "partitions %d\n" s.Netfs.rs_partitions;
    Printf.bprintf buf "crashes %d\n" s.Netfs.rs_crashes;
    Printf.bprintf buf "fenced %d\n" s.Netfs.rs_fenced;
    let sites = Netfs.fault_sites srv in
    Printf.bprintf buf "fault_sites %d\n" (List.length sites);
    List.iter
      (fun site ->
        Printf.bprintf buf "site %s arrivals %d injected %d\n" (Fault.name site)
          (Fault.arrivals site) (Fault.injected site))
      sites;
    Buffer.contents buf

(* [netfs/leases] is the lease book (§3.7): server-side epoch/grace/grant
   gauges plus one line per registered client with its grant, gate and
   break tallies. *)
let render_netfs_leases netfs () =
  match netfs with
  | None -> "no netfs server attached\n"
  | Some srv ->
    let buf = Buffer.create 256 in
    Printf.bprintf buf "epoch %d\n" (Netfs.epoch srv);
    Printf.bprintf buf "in_grace %d\n" (if Netfs.in_grace srv then 1 else 0);
    Printf.bprintf buf "lease_ttl_ns %d\n" (Netfs.lease_ttl_ns srv);
    Printf.bprintf buf "lease_skew_ns %d\n" (Netfs.lease_skew_ns srv);
    Printf.bprintf buf "grace_ns %d\n" (Netfs.grace_ns srv);
    Printf.bprintf buf "grants %d\n" (Netfs.grant_count srv);
    Printf.bprintf buf "lease_age %s\n" (Lhist.to_string (Netfs.lease_age srv));
    let clients = Netfs.clients srv in
    Printf.bprintf buf "clients %d\n" (List.length clients);
    List.iter
      (fun c ->
        let ls = Netfs.lease_stats srv c in
        Printf.bprintf buf
          "client %d epoch %d granted %d live %d gate_live %d gate_expired %d \
           gate_miss %d breaks %d fences %d\n"
          (Netfs.client_id c) (Netfs.client_epoch c) ls.Netfs.ls_grants
          ls.Netfs.ls_live ls.Netfs.ls_gate_live ls.Netfs.ls_gate_expired
          ls.Netfs.ls_gate_miss ls.Netfs.ls_breaks ls.Netfs.ls_fences)
      clients;
    Buffer.contents buf

let ok = function Ok v -> v | Error _ -> assert false

let make ?faults ?netfs kernel =
  let p = Pseudofs.create () in
  ok (Pseudofs.add_file p "/version" ~content:(fun () -> "dcache-sim (SOSP 2015 reproduction)\n"));
  ok (Pseudofs.add_dir p "/dcache");
  ok (Pseudofs.add_file p "/dcache/stats" ~content:(render_stats kernel));
  ok (Pseudofs.add_file p "/dcache/summary" ~content:(render_summary kernel));
  ok (Pseudofs.add_file p "/dcache/config" ~content:(render_config kernel));
  ok (Pseudofs.add_file p "/dcache/stripes" ~content:(render_stripes kernel));
  ok (Pseudofs.add_file p "/dcache/neglists" ~content:(render_neglists kernel));
  ok
    (Pseudofs.add_file p "/dcache/histograms" ~content:(fun () ->
         Timers.histograms_to_string (Kernel.timers kernel)));
  ok (Pseudofs.add_file p "/dcache/causes" ~content:(fun () -> causes_to_string kernel));
  ok (Pseudofs.add_file p "/dcache/trace" ~content:(fun () -> Trace.ring_to_string ()));
  ok (Pseudofs.add_file p "/dcache/batch" ~content:(render_batch kernel));
  ok (Pseudofs.add_file p "/faults" ~content:(render_faults faults));
  ok (Pseudofs.add_dir p "/netfs");
  ok (Pseudofs.add_file p "/netfs/rpc" ~content:(render_netfs_rpc netfs));
  ok (Pseudofs.add_file p "/netfs/leases" ~content:(render_netfs_leases netfs));
  Pseudofs.fs p

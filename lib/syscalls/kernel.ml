open Dcache_vfs.Types
module Vfs = Dcache_vfs
module Dcache = Vfs.Dcache
module Mount = Vfs.Mount
module Lsm = Dcache_cred.Lsm
module Fastpath = Dcache_core.Fastpath
module Fault = Dcache_util.Fault

type crash_sites = {
  cs_create : Fault.site;
  cs_unlink : Fault.site;
  cs_rename : Fault.site;
  cs_invalidate : Fault.site;
  cs_mkdir : Fault.site;
  cs_rmdir : Fault.site;
  cs_readdir : Fault.site;
}

type t = {
  dcache : Dcache.t;
  fastpath : Fastpath.t;
  timers : Dcache_util.Timers.t;  (* the dcache's, read by every syscall *)
  registry : Lsm.registry;
  init_ns : namespace;
  (* The default credential of processes spawned without one: shared by
     all of them, so they share one PCC (§4.1), and owned by the kernel, so
     that PCC dies with it. *)
  root_cred : Dcache_cred.Cred.t;
  (* fs instance -> superblock (by physical identity), so mounting the same
     fs twice aliases the same dentries *)
  mutable sb_keys : (Dcache_fs.Fs_intf.t * superblock) list;
  mutable crash_sites : crash_sites option;
}

let make_superblock t fs =
  let rec find = function
    | [] -> None
    | (other_fs, sb) :: rest -> if other_fs == fs then Some sb else find rest
  in
  match find t.sb_keys with
  | Some sb -> Ok sb
  | None -> (
    match Dcache.make_superblock t.dcache fs with
    | Ok sb ->
      t.sb_keys <- (fs, sb) :: t.sb_keys;
      Ok sb
    | Error _ as e -> e)

let create ?(config = Vfs.Config.baseline) ?(lsms = []) ~root_fs () =
  let dcache = Dcache.create config in
  let fastpath = Fastpath.create dcache in
  let registry = Lsm.create () in
  List.iter (Lsm.register registry) lsms;
  let init_ns = Mount.new_namespace () in
  let t =
    {
      dcache;
      fastpath;
      timers = Dcache.timers dcache;
      registry;
      init_ns;
      root_cred = Dcache_cred.Cred.root ();
      sb_keys = [];
      crash_sites = None;
    }
  in
  (match make_superblock t root_fs with
  | Ok sb -> ignore (Mount.mount_rootfs init_ns sb)
  | Error e -> invalid_arg ("Kernel.create: bad root fs: " ^ Dcache_types.Errno.to_string e));
  t

let config t = Dcache.config t.dcache
let dcache t = t.dcache
let fastpath t = t.fastpath
let registry t = t.registry
let init_ns t = t.init_ns
let root_cred t = t.root_cred
let root t = Mount.root t.init_ns
let counters t = Dcache.counters t.dcache
let timers t = t.timers
let crash_sites t = t.crash_sites
let set_crash_sites t sites = t.crash_sites <- sites

let drop_caches t =
  Dcache.with_write t.dcache (fun () -> Dcache.purge t.dcache)

type scrub_report = {
  dcache_quarantined : int;
  dlht_quarantined : int;
  scrub_problems : string list;
}

(* Degraded-mode integrity pass: quarantine (rather than serve) any cache
   state a fault campaign managed to corrupt.  Dcache first — detaching a
   broken dentry also shoots down its DLHT entry — then a table-local pass
   over the DLHT chains. *)
let scrub t =
  Dcache.with_write t.dcache (fun () ->
      let d = Dcache.scrub t.dcache in
      let dlht_quarantined, dlht_problems =
        match Dcache_core.Dlht.of_namespace_opt t.init_ns with
        | None -> (0, [])
        | Some table ->
          let r = Dcache_core.Dlht.scrub table in
          (r.Dcache_core.Dlht.scrub_quarantined, r.Dcache_core.Dlht.scrub_problems)
      in
      {
        dcache_quarantined = d.Dcache.scrub_quarantined;
        dlht_quarantined;
        scrub_problems = d.Dcache.scrub_problems @ dlht_problems;
      })

let stats_snapshot t = Dcache_util.Stats.Counter.to_assoc (counters t)
let reset_stats t =
  Dcache_util.Stats.Counter.reset (counters t);
  Dcache_util.Timers.reset t.timers

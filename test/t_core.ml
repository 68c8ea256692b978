(* Tests specific to the optimized directory cache: the DLHT/PCC fastpath,
   prefix-check memoization, directory completeness, aggressive/deep
   negative dentries, symlink aliases, signatures and collisions. *)

open Dcache_types
open Kit
module Lsm = Dcache_cred.Lsm
module Fastpath = Dcache_core.Fastpath
module Pcc = Dcache_core.Pcc
module Dlht = Dcache_core.Dlht
module Dcache = Dcache_vfs.Dcache

let opt_kernel ?(config = Config.optimized) ?lsms () = ram_kernel ~config ?lsms ()

let setup ?(config = Config.optimized) ?lsms () =
  let kernel, p = opt_kernel ~config ?lsms () in
  get "tree" (S.mkdir_p p "/a/b/c");
  get "file" (S.write_file p "/a/b/c/target" "payload!");
  (kernel, p)

let test_fastpath_hits_after_warm () =
  let kernel, p = setup () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  Kernel.reset_stats kernel;
  for _ = 1 to 10 do
    ignore (get "hot" (S.stat p "/a/b/c/target"))
  done;
  Alcotest.(check int) "all fastpath" 10 (counter kernel "fastpath_hit");
  Alcotest.(check int) "no fallback" 0 (counter kernel "fastpath_fallback");
  Alcotest.(check int) "no slowpath" 0 (counter kernel "walk_slowpath")

let test_baseline_never_uses_fastpath () =
  let kernel, p = ram_kernel ~config:Config.baseline () in
  get "f" (S.write_file p "/f" "x");
  ignore (get "stat" (S.stat p "/f"));
  ignore (get "stat" (S.stat p "/f"));
  Alcotest.(check int) "no fastpath" 0 (counter kernel "fastpath_hit")

let test_pcc_memoizes_lsm_checks () =
  (* After the first permission-checked walk, repeated lookups must not
     invoke the LSM at all (§3.1/§4.1). *)
  let hooks = { Lsm.name = "probe"; inode_permission = (fun _ _ _ -> true) } in
  let counted, calls = Lsm.counting hooks in
  let kernel, p = setup ~lsms:[ counted ] () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  let after_warm = calls () in
  Alcotest.(check bool) "LSM consulted on walk" true (after_warm > 0);
  for _ = 1 to 20 do
    ignore (get "hot" (S.stat p "/a/b/c/target"))
  done;
  Alcotest.(check int) "memoized: zero further LSM calls" after_warm (calls ());
  ignore kernel

let test_baseline_reevaluates_lsm () =
  let hooks = { Lsm.name = "probe"; inode_permission = (fun _ _ _ -> true) } in
  let counted, calls = Lsm.counting hooks in
  let kernel, p = setup ~config:Config.baseline ~lsms:[ counted ] () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  let after_warm = calls () in
  ignore (get "hot" (S.stat p "/a/b/c/target"));
  Alcotest.(check bool) "baseline keeps checking" true (calls () > after_warm);
  ignore kernel

let test_pcc_shared_across_forks () =
  let kernel, _p = setup () in
  let alice_p = Proc.spawn ~cred:(alice ()) kernel in
  ignore (get "warm alice" (S.stat alice_p "/a/b/c/target"));
  let child = Proc.fork alice_p in
  Kernel.reset_stats kernel;
  ignore (get "child hot" (S.stat child "/a/b/c/target"));
  Alcotest.(check int) "child rides parent's PCC" 1 (counter kernel "fastpath_hit")

let test_commit_creds_preserves_pcc () =
  let kernel, _p = setup () in
  let alice_p = Proc.spawn ~cred:(alice ()) kernel in
  ignore (get "warm" (S.stat alice_p "/a/b/c/target"));
  (* A no-op credential change must keep the same cred (and PCC). *)
  Proc.set_cred alice_p (fun b -> Dcache_cred.Cred.Builder.set_uid b 1000);
  Kernel.reset_stats kernel;
  ignore (get "hot" (S.stat alice_p "/a/b/c/target"));
  Alcotest.(check int) "still fastpath" 1 (counter kernel "fastpath_hit");
  (* A real change starts with an empty PCC: first lookup falls back. *)
  Proc.set_cred alice_p (fun b -> Dcache_cred.Cred.Builder.set_gid b 4242);
  Kernel.reset_stats kernel;
  ignore (get "new cred" (S.stat alice_p "/a/b/c/target"));
  Alcotest.(check int) "fallback once" 1 (counter kernel "fastpath_fallback")

let test_rename_shoots_down_fastpath () =
  let kernel, p = setup () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  get "rename dir" (S.rename p "/a/b" "/a/moved");
  expect_err Errno.ENOENT "old path dead" (S.stat p "/a/b/c/target");
  Alcotest.(check string) "new path live" "payload!" (get "read" (S.read_file p "/a/moved/c/target"));
  ignore kernel

let test_unlink_leaves_negative_on_fastpath () =
  let kernel, p = setup () in
  (* Completeness lost: the re-walked /a/b/c is not DIR_COMPLETE, so the
     unlinked name stays cached as a negative (§5.2). *)
  Kernel.drop_caches kernel;
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  get "unlink" (S.unlink p "/a/b/c/target");
  Kernel.reset_stats kernel;
  expect_err Errno.ENOENT "fast negative" (S.stat p "/a/b/c/target");
  Alcotest.(check int) "served by fastpath" 1 (counter kernel "fastpath_hit");
  Alcotest.(check int) "negative hit" 1 (counter kernel "fastpath_negative_hit")

let test_rename_leaves_negative_for_old_name () =
  let kernel, p = setup () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  get "rename" (S.rename p "/a/b/c/target" "/a/b/c/renamed");
  Kernel.reset_stats kernel;
  expect_err Errno.ENOENT "old name" (S.stat p "/a/b/c/target");
  Alcotest.(check int) "no fs consult" 0 (counter kernel "dcache_miss");
  ignore kernel

let test_deep_negative_dentries () =
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  get "base" (S.mkdir_p p "/x");
  (* Completeness lost: /x is re-walked, not DIR_COMPLETE, so the miss
     caches "missing" and chains negatives below it. *)
  Kernel.drop_caches kernel;
  expect_err Errno.ENOENT "deep miss" (S.stat p "/x/missing/deep/path");
  let lookups = fs_calls "lookup" in
  (* Repeats of the full deep path must not consult the fs again. *)
  expect_err Errno.ENOENT "again" (S.stat p "/x/missing/deep/path");
  expect_err Errno.ENOENT "again2" (S.stat p "/x/missing/deep/path");
  Alcotest.(check int) "fs untouched" lookups (fs_calls "lookup");
  Alcotest.(check bool) "deep negatives created" true
    (counter kernel "deep_negative_created" >= 2)

let test_deep_enotdir_dentries () =
  let kernel, p = setup () in
  expect_err Errno.ENOTDIR "under file" (S.stat p "/a/b/c/target/not/here");
  Kernel.reset_stats kernel;
  expect_err Errno.ENOTDIR "cached" (S.stat p "/a/b/c/target/not/here");
  Alcotest.(check int) "fastpath ENOTDIR" 1 (counter kernel "fastpath_negative_hit")

let test_mkdir_over_deep_negative_keeps_children () =
  (* Creating a DIRECTORY where a name was absent: lookups below it are
     still answered without the fs — the new directory is empty and
     complete (§5.1). *)
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  get "base" (S.mkdir_p p "/x");
  expect_err Errno.ENOENT "deep miss" (S.stat p "/x/newdir/child");
  get "mkdir over negative" (S.mkdir p "/x/newdir");
  let lookups = fs_calls "lookup" in
  expect_err Errno.ENOENT "child still negative, no fs call" (S.stat p "/x/newdir/child");
  Alcotest.(check int) "no fs lookup" lookups (fs_calls "lookup");
  (* And creating the child invalidates correctly. *)
  get "create child" (S.write_file p "/x/newdir/child" "now");
  ignore (get "exists" (S.stat p "/x/newdir/child"));
  ignore kernel

(* A complete directory is its own negative cache (§5.1): completing one
   drops the negatives cached under it while it was incomplete, deep
   chains included — by mkdir over a negative that heads a chain (the
   global scope: the chain spans stripes) and by a listing (its stripe
   section reruns under the write lock). *)
let test_completion_drops_negatives () =
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  let d = Kernel.dcache kernel in
  get "base" (S.mkdir_p p "/x");
  get "file" (S.write_file p "/x/real" "r");
  Kernel.drop_caches kernel;
  let absent = [ "/x/ghost"; "/x/missing/deep/path"; "/x/newdir/child" ] in
  List.iter (fun path -> expect_err Errno.ENOENT path (S.stat p path)) absent;
  Alcotest.(check bool) "incomplete /x cached deep negatives" true
    (counter kernel "deep_negative_created" >= 2);
  let sharded0 = counter kernel "sharded_mkdir" in
  get "mkdir over a chain head" (S.mkdir p "/x/newdir");
  Alcotest.(check int) "chain head took the global scope" sharded0
    (counter kernel "sharded_mkdir");
  Alcotest.(check (list string)) "new directory holds no negative" [] (Dcache.self_check d);
  let names =
    get "readdir" (S.readdir_path p "/x")
    |> List.map (fun e -> e.Dcache_fs.Fs_intf.name)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "listing" [ "newdir"; "real" ] names;
  Alcotest.(check (list string)) "completed /x holds no negative" [] (Dcache.self_check d);
  Alcotest.(check int) "no negative resident" 0
    (Array.fold_left ( + ) 0 (Dcache.neg_occupancy d));
  let lookups = fs_calls "lookup" in
  let created = counter kernel "negative_created" in
  List.iter (fun path -> expect_err Errno.ENOENT path (S.stat p path)) absent;
  Alcotest.(check int) "absences answered without the fs" lookups (fs_calls "lookup");
  Alcotest.(check int) "and without a negative" created (counter kernel "negative_created")

let test_file_creation_over_negative_drops_children () =
  let kernel, p = opt_kernel () in
  get "base" (S.mkdir_p p "/x");
  expect_err Errno.ENOENT "deep" (S.stat p "/x/thing/below");
  (* Create a FILE where the negative dentry was: ENOTDIR must now win. *)
  get "create file" (S.write_file p "/x/thing" "flat");
  expect_err Errno.ENOTDIR "below a file now" (S.stat p "/x/thing/below");
  ignore kernel

let test_completeness_serves_readdir_from_cache () =
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  get "tree" (S.mkdir_p p "/dir");
  for i = 1 to 20 do
    get "f" (S.write_file p (Printf.sprintf "/dir/f%02d" i) "x")
  done;
  let l1 = get "readdir1" (S.readdir_path p "/dir") in
  let fs_readdirs = fs_calls "readdir" in
  let l2 = get "readdir2" (S.readdir_path p "/dir") in
  Alcotest.(check int) "fs readdir not repeated" fs_readdirs (fs_calls "readdir");
  let names l = List.map (fun e -> e.Dcache_fs.Fs_intf.name) l |> List.sort compare in
  Alcotest.(check (list string)) "same listing" (names l1) (names l2);
  Alcotest.(check bool) "served from cache" true
    (counter kernel "readdir_scratch_warm" + counter kernel "readdir_from_cache" > 0)

let test_completeness_coherent_with_mutations () =
  let kernel, p = opt_kernel () in
  get "dir" (S.mkdir_p p "/dir");
  for i = 1 to 5 do
    get "f" (S.write_file p (Printf.sprintf "/dir/f%d" i) "x")
  done;
  ignore (get "readdir" (S.readdir_path p "/dir"));
  (* Mutate through the VFS; cached listings must stay correct. *)
  get "unlink" (S.unlink p "/dir/f3");
  get "create" (S.write_file p "/dir/f9" "x");
  get "rename" (S.rename p "/dir/f1" "/dir/f1renamed");
  let names =
    get "readdir2" (S.readdir_path p "/dir")
    |> List.map (fun e -> e.Dcache_fs.Fs_intf.name)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "coherent listing"
    [ "f1renamed"; "f2"; "f4"; "f5"; "f9" ] names;
  ignore kernel

let test_completeness_miss_is_negative () =
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  get "dir" (S.mkdir_p p "/dir");
  get "f" (S.write_file p "/dir/exists" "x");
  ignore (get "read dir" (S.readdir_path p "/dir"));
  let lookups = fs_calls "lookup" in
  expect_err Errno.ENOENT "miss under complete dir" (S.stat p "/dir/absent");
  Alcotest.(check int) "no fs lookup (complete)" lookups (fs_calls "lookup");
  Alcotest.(check bool) "counter" true (counter kernel "complete_dir_negative" > 0)

let test_mkdir_marks_complete () =
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let _kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn _kernel in
  get "mkdir" (S.mkdir p "/fresh");
  let lookups = fs_calls "lookup" in
  expect_err Errno.ENOENT "fresh dir is complete" (S.stat p "/fresh/anything");
  Alcotest.(check int) "no compulsory miss" lookups (fs_calls "lookup")

let test_readdir_then_stat_promotes_partials () =
  (* After a readdir, stats of the children need only getattr, never a
     directory-scanning lookup (§5.1). *)
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let _kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn _kernel in
  get "dir" (S.mkdir_p p "/dir");
  for i = 1 to 10 do
    get "f" (S.write_file p (Printf.sprintf "/dir/g%d" i) "x")
  done;
  Kernel.drop_caches _kernel;
  let promoted = counter _kernel "readdir_promoted" in
  ignore (get "list" (S.readdir_path p "/dir"));
  Alcotest.(check int) "one cold listing, one promotion" 1
    (counter _kernel "readdir_promoted" - promoted);
  let lookups = fs_calls "lookup" in
  for i = 1 to 10 do
    ignore (get "stat" (S.stat p (Printf.sprintf "/dir/g%d" i)))
  done;
  Alcotest.(check int) "no per-name directory scans" lookups (fs_calls "lookup")

let dirent_names l = List.map (fun e -> e.Dcache_fs.Fs_intf.name) l

let test_lseek_serves_snapshot () =
  (* [lseek k] repositions within the stream's snapshot; [lseek 0] drops it,
     so the next getdents lists afresh and sees what changed meanwhile. *)
  let kernel, p = opt_kernel () in
  get "dir" (S.mkdir_p p "/dir");
  for i = 1 to 8 do
    get "f" (S.write_file p (Printf.sprintf "/dir/f%d" i) "x")
  done;
  Kernel.drop_caches kernel;
  let promoted = counter kernel "readdir_promoted" in
  let fd = get "open" (S.openf p "/dir" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
  let snapshot = dirent_names (get "all" (S.getdents p fd 100)) in
  Alcotest.(check int) "whole listing" 8 (List.length snapshot);
  Alcotest.(check (list string)) "drained" [] (dirent_names (get "end" (S.getdents p fd 4)));
  Alcotest.(check int) "drained cold stream promotes once" 1
    (counter kernel "readdir_promoted" - promoted);
  get "create" (S.write_file p "/dir/late" "x");
  ignore (get "seek 3" (S.lseek p fd 3));
  Alcotest.(check (list string)) "from entry 3 of the snapshot"
    (List.filteri (fun i _ -> i >= 3 && i < 5) snapshot)
    (dirent_names (get "chunk" (S.getdents p fd 2)));
  ignore (get "seek past the end" (S.lseek p fd 100));
  Alcotest.(check (list string)) "nothing past the end" []
    (dirent_names (get "past end" (S.getdents p fd 4)));
  ignore (get "rewind" (S.lseek p fd 0));
  let fresh = dirent_names (get "relist" (S.getdents p fd 100)) in
  Alcotest.(check (list string)) "rewind re-lists" (List.sort compare ("late" :: snapshot))
    (List.sort compare fresh);
  get "close" (S.close p fd)

let test_symlink_alias_fastpath () =
  let kernel, p = setup () in
  get "ln" (S.symlink p ~target:"/a/b" "/shortcut");
  ignore (get "warm" (S.stat p "/shortcut/c/target"));
  Kernel.reset_stats kernel;
  ignore (get "hot" (S.stat p "/shortcut/c/target"));
  Alcotest.(check int) "alias fastpath hit" 1 (counter kernel "fastpath_hit");
  Alcotest.(check int) "no slowpath" 0 (counter kernel "walk_slowpath")

let test_symlink_replacement_retargets () =
  let kernel, p = setup () in
  get "other" (S.mkdir_p p "/other");
  get "otherfile" (S.write_file p "/other/target" "other payload");
  get "ln" (S.symlink p ~target:"/a/b/c" "/sw");
  Alcotest.(check string) "via link" "payload!" (get "read" (S.read_file p "/sw/target"));
  get "rm ln" (S.unlink p "/sw");
  get "ln2" (S.symlink p ~target:"/other" "/sw");
  Alcotest.(check string) "retargeted" "other payload" (get "read" (S.read_file p "/sw/target"));
  ignore kernel

let test_trailing_symlink_fastpath () =
  let kernel, p = setup () in
  get "ln" (S.symlink p ~target:"/a/b/c/target" "/direct");
  ignore (get "warm" (S.stat p "/direct"));
  Kernel.reset_stats kernel;
  let a = get "hot" (S.stat p "/direct") in
  Alcotest.(check int) "fastpath" 1 (counter kernel "fastpath_hit");
  Alcotest.(check int) "size" 8 a.Attr.size;
  (* lstat of the same path must still see the symlink itself. *)
  let l = get "lstat" (S.lstat p "/direct") in
  Alcotest.(check bool) "symlink kind" true (File_kind.equal l.Attr.kind File_kind.Symlink)

let test_namespace_private_dlht () =
  let kernel, p = setup () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  let child = Proc.fork p in
  get "unshare" (S.unshare_mount_ns child);
  Kernel.reset_stats kernel;
  (* First lookup in the fresh namespace cannot hit its (empty) DLHT. *)
  ignore (get "child stat" (S.stat child "/a/b/c/target"));
  Alcotest.(check int) "fallback in new ns" 1 (counter kernel "fastpath_fallback");
  Kernel.reset_stats kernel;
  ignore (get "child stat2" (S.stat child "/a/b/c/target"));
  Alcotest.(check int) "then hits" 1 (counter kernel "fastpath_hit");
  (* The original namespace is unaffected... but the dentry moved to the
     child's DLHT (one DLHT per dentry): the parent falls back once. *)
  ignore (get "parent stat" (S.stat p "/a/b/c/target"));
  ignore kernel

let test_mount_alias_resignature () =
  let kernel, p = setup () in
  get "bp1" (S.mkdir_p p "/alias1");
  get "bp2" (S.mkdir_p p "/alias2");
  get "bind1" (S.bind_mount p ~src:"/a/b" ~dst:"/alias1");
  get "bind2" (S.bind_mount p ~src:"/a/b" ~dst:"/alias2");
  (* Both aliases resolve correctly no matter the caching order. *)
  for _ = 1 to 3 do
    Alcotest.(check string) "via alias1" "payload!" (get "r1" (S.read_file p "/alias1/c/target"));
    Alcotest.(check string) "via alias2" "payload!" (get "r2" (S.read_file p "/alias2/c/target"))
  done;
  Alcotest.(check bool) "resignature happened" true
    (counter kernel "mount_alias_resignature" > 0)

let test_forced_collision_cross_cred_safety () =
  (* With a tiny signature, DLHT collisions are common.  A credential that
     never passed a prefix check for the colliding path must still get the
     correct file via the slowpath (paper §3.3: Bob cannot be fooled by
     Alice's cache state). *)
  let config = { Config.optimized with Config.sig_bits = 1 } in
  let kernel, root_p = ram_kernel ~config () in
  get "pub" (S.mkdir_p root_p "/pub");
  for i = 0 to 63 do
    get "f" (S.write_file root_p (Printf.sprintf "/pub/file%d" i) (string_of_int i))
  done;
  let alice_p = Proc.spawn ~cred:(alice ()) kernel in
  (* Alice warms every path; the 1-bit signatures guarantee collisions in
     the DLHT chains. *)
  for i = 0 to 63 do
    ignore (get "warm" (S.stat alice_p (Printf.sprintf "/pub/file%d" i)))
  done;
  let bob_p = Proc.spawn ~cred:(bob ()) kernel in
  for i = 0 to 63 do
    let content = get "bob reads" (S.read_file bob_p (Printf.sprintf "/pub/file%d" i)) in
    Alcotest.(check string) "correct file" (string_of_int i) content
  done

let test_eviction_coherence () =
  (* A tiny dcache: constant eviction must never produce wrong results. *)
  let config = { Config.optimized with Config.max_dentries = 24 } in
  let kernel, p = ram_kernel ~config () in
  get "mk" (S.mkdir_p p "/d");
  for i = 0 to 99 do
    get "f" (S.write_file p (Printf.sprintf "/d/f%d" i) (string_of_int i))
  done;
  for round = 1 to 3 do
    ignore round;
    for i = 0 to 99 do
      let c = get "read" (S.read_file p (Printf.sprintf "/d/f%d" i)) in
      Alcotest.(check string) "right content" (string_of_int i) c
    done
  done;
  Alcotest.(check bool) "evictions occurred" true (counter kernel "dcache_evicted" > 0);
  Alcotest.(check bool) "cache stayed bounded" true
    (Dcache_vfs.Dcache.dentry_count (Kernel.dcache kernel) <= 24 * 2)

(* The dcache's eviction order is CLOCK: a dentry hit since the hand last
   passed outlives an unmarked evictable sibling, however they compare in
   age.  The sweep that makes room for x0 clears every mark (every entry is
   new, so marked); then f1, the oldest survivor, is hit or not, and the
   sweep for x1 evicts whichever of f1 and f2 is unmarked first. *)
type clock_hit = No_hit | Walk_hit | Fastpath_hit

let clock_survivors config via =
  let config = { config with Config.max_dentries = 8 } in
  let kernel, p = ram_kernel ~config () in
  let dcache = Kernel.dcache kernel in
  get "mkdir" (S.mkdir_p p "/d");
  let n = ref 0 in
  while Dcache.dentry_count dcache < 8 do
    get "fill" (S.write_file p (Printf.sprintf "/d/f%d" !n) "x");
    incr n
  done;
  (* Publish f1 now, so that after the sweep its stat is a fastpath hit. *)
  if via = Fastpath_hit then ignore (get "publish" (S.stat p "/d/f1"));
  get "x0" (S.write_file p "/d/x0" "x");
  Alcotest.(check int) "one eviction" 1 (counter kernel "dcache_evicted");
  let root = (Proc.walk_ctx p).Dcache_vfs.Walk.root.Dcache_vfs.Types.dentry in
  let d = Option.get (Dcache.lookup dcache root "d") in
  let cached name = Dcache.contains_child dcache d name ~pos:0 ~len:(String.length name) in
  Alcotest.(check bool) "f1 and f2 survive the first sweep" true (cached "f1" && cached "f2");
  if via <> No_hit then begin
    let fast = counter kernel "fastpath_hit" in
    ignore (get "hit" (S.stat p "/d/f1"));
    Alcotest.(check int) "the hit's path" (if via = Fastpath_hit then 1 else 0)
      (counter kernel "fastpath_hit" - fast)
  end;
  get "x1" (S.write_file p "/d/x1" "x");
  Alcotest.(check int) "two evictions" 2 (counter kernel "dcache_evicted");
  (cached "f1", cached "f2")

let test_clock_spares_hit_dentry config =
  let check label via expect =
    Alcotest.(check (pair bool bool)) label expect (clock_survivors config via)
  in
  check "no hit: the older f1 goes" No_hit (false, true);
  check "walk hit: f1 stays, f2 goes" Walk_hit (true, false);
  if config.Config.fastpath then check "fastpath hit: f1 stays, f2 goes" Fastpath_hit (true, false)

let test_simulate_pcc_miss_mode () =
  let kernel, p = setup () in
  Fastpath.set_simulate_pcc_miss (Kernel.fastpath kernel) true;
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  Kernel.reset_stats kernel;
  ignore (get "still correct" (S.stat p "/a/b/c/target"));
  Alcotest.(check int) "forced fallback" 1 (counter kernel "fastpath_fallback");
  Fastpath.set_simulate_pcc_miss (Kernel.fastpath kernel) false;
  ignore (get "warm2" (S.stat p "/a/b/c/target"));
  Kernel.reset_stats kernel;
  ignore (get "fast again" (S.stat p "/a/b/c/target"));
  Alcotest.(check int) "hit" 1 (counter kernel "fastpath_hit")

let test_dotdot_linux_vs_lexical () =
  (* Both dot-dot semantics agree on well-formed trees... *)
  let check_config config =
    let _, p = ram_kernel ~config () in
    get "t" (S.mkdir_p p "/t/u");
    get "f" (S.write_file p "/t/file" "T");
    Alcotest.(check string) "dotdot path" "T" (get "read" (S.read_file p "/t/u/../file"))
  in
  check_config Config.optimized;
  check_config { Config.optimized with Config.dotdot = Config.Dotdot_lexical };
  (* ...but differ through symlinks: /t/link/.. is /t lexically, yet the
     link target's parent under Linux semantics. *)
  let run config =
    let _, p = ram_kernel ~config () in
    get "deep" (S.mkdir_p p "/t/deep");
    get "elsewhere" (S.mkdir_p p "/elsewhere/sub");
    get "marker" (S.write_file p "/t/who" "t-dir");
    get "marker2" (S.write_file p "/elsewhere/who" "elsewhere-dir");
    get "ln" (S.symlink p ~target:"/elsewhere/sub" "/t/link");
    get "read" (S.read_file p "/t/link/../who")
  in
  Alcotest.(check string) "linux semantics: target's parent" "elsewhere-dir"
    (run Config.optimized);
  Alcotest.(check string) "lexical semantics: literal parent" "t-dir"
    (run { Config.optimized with Config.dotdot = Config.Dotdot_lexical });
  (* A complete directory must not fast-fail a name that a later ".."
     cancels: lexically /t/ghost/../file is /t/file, while Linux semantics
     must find ghost first. *)
  let through_ghost config =
    let _, p = ram_kernel ~config () in
    get "t" (S.mkdir_p p "/t");
    get "f" (S.write_file p "/t/file" "T");
    ignore (get "readdir" (S.readdir_path p "/t"));
    S.stat p "/t/ghost/../file"
  in
  expect_err Errno.ENOENT "linux: ghost must exist" (through_ghost Config.optimized);
  ignore
    (get "lexical: ghost is cancelled"
       (through_ghost { Config.optimized with Config.dotdot = Config.Dotdot_lexical }))

(* Lazily built state (the namespace DLHT, the credential's PCC, a start
   directory's hash state) that does not exist yet is a miss, not a race:
   the first lookup on a fresh kernel goes straight to the fallback. *)
let test_missing_state_is_a_miss () =
  let kernel, p = opt_kernel () in
  Kernel.reset_stats kernel;
  ignore (get "stat /" (S.stat p "/"));
  Alcotest.(check int) "no lockless retry" 0 (counter kernel "fastpath_lockless_retry");
  Alcotest.(check int) "no locked probe" 0 (counter kernel "fastpath_locked_probe");
  Alcotest.(check int) "one fallback" 1 (counter kernel "fastpath_fallback")

let test_pcc_unit () =
  (* [pcc_entries] is the one knob: a ceiling at or below the paper's 4096
     is a static table; a higher one starts at 4096 and may grow to it. *)
  let counters = Dcache_util.Stats.Counter.create () in
  let static = Pcc.create ~counters ~entries:64 () in
  Alcotest.(check int) "capacity rounded" 64 (Pcc.capacity static);
  Alcotest.(check int) "static: no growth" 0 (Pcc.grows static);
  let growing = Pcc.create ~counters ~entries:20_000 () in
  Alcotest.(check int) "starts at the paper's 64 KB" 4096 (Pcc.capacity growing);
  Alcotest.(check int) "no growth before churn" 0 (Pcc.grows growing);
  let kernel, p = setup () in
  ignore (get "stat" (S.stat p "/a/b/c/target"));
  ignore (kernel, p)

let test_dynamic_pcc_grows () =
  (* A working set larger than the initial 4096 entries grows the table
     toward the ceiling, and the grown table serves a full pass from its
     entries, with few refills. *)
  let config = { Config.optimized with Config.pcc_entries = 16384 } in
  let kernel, p = ram_kernel ~config () in
  let files = 6000 in
  let path i = Printf.sprintf "/many/d%02d/f%04d" (i mod 30) i in
  for d = 0 to 29 do
    get "dir" (S.mkdir_p p (Printf.sprintf "/many/d%02d" d))
  done;
  for i = 0 to files - 1 do
    get "f" (S.write_file p (path i) "x")
  done;
  (* A cold pass walks and publishes every file; the warm passes refill what
     the table evicted before it grew. *)
  Kernel.drop_caches kernel;
  for _ = 1 to 3 do
    for i = 0 to files - 1 do
      ignore (get "stat" (S.stat p (path i)))
    done
  done;
  let pcc =
    Pcc.of_cred p.Proc.cred (Kernel.init_ns kernel) ~counters:(Kernel.counters kernel)
      ~entries:config.Config.pcc_entries
  in
  Alcotest.(check bool) "grew" true (Pcc.grows pcc > 0);
  Alcotest.(check bool) "capacity increased" true (Pcc.capacity pcc > 4096);
  Alcotest.(check bool) "capacity within the ceiling" true (Pcc.capacity pcc <= 16384);
  Kernel.reset_stats kernel;
  for i = 0 to files - 1 do
    ignore (get "stat" (S.stat p (path i)))
  done;
  Alcotest.(check int) "all fastpath" 0 (counter kernel "fastpath_fallback");
  (* Residual set-associativity conflicts are refilled; a static 4096-entry
     table would refill most of the pass. *)
  Alcotest.(check bool) "mostly PCC hits" true (counter kernel "fastpath_pcc_refill" < files / 10)

let test_pcc_fitting_set_keeps_size () =
  (* A working set well inside the initial 4096 entries still leaves a few
     4-way sets over-full, and uniform lookups keep evicting and refilling
     their entries for as long as they run: here about 2,200 refills in
     200,000 lookups.  Summed without end, that trickle would pass any
     fixed count and grow the table; as a rate, 1.1% of checks, it stays
     far below growth's one eviction per 32 checks. *)
  let config = { Config.optimized with Config.pcc_entries = 16384 } in
  let kernel, p = ram_kernel ~config () in
  let files = 2000 in
  let path i = Printf.sprintf "/fit/d%02d/f%04d" (i mod 30) i in
  for d = 0 to 29 do
    get "dir" (S.mkdir_p p (Printf.sprintf "/fit/d%02d" d))
  done;
  for i = 0 to files - 1 do
    get "f" (S.write_file p (path i) "x")
  done;
  let g = Dcache_util.Prng.create 7 in
  Kernel.reset_stats kernel;
  for _ = 1 to 200_000 do
    ignore (get "stat" (S.stat p (path (Dcache_util.Prng.int g files))))
  done;
  let pcc =
    Pcc.of_cred p.Proc.cred (Kernel.init_ns kernel) ~counters:(Kernel.counters kernel)
      ~entries:config.Config.pcc_entries
  in
  (* More evictions than a quarter of the table. *)
  Alcotest.(check bool) "evictions trickled" true (counter kernel "fastpath_pcc_refill" > 1024);
  Alcotest.(check int) "no growth" 0 (Pcc.grows pcc);
  Alcotest.(check int) "the paper's 64 KB" 4096 (Pcc.capacity pcc)

(* --- lockless PCC refill ---

   A DLHT hit whose dentry has no PCC entry for this credential climbs its
   cached parents to one the PCC vouches for, instead of walking. *)

let test_refill_stops_at_valid_parent () =
  let kernel, p = setup () in
  let alice_p = Proc.spawn ~cred:(alice ()) kernel in
  (* Root's walk puts the target in the DLHT; alice's PCC knows only its
     directory. *)
  ignore (get "root warms" (S.stat p "/a/b/c/target"));
  ignore (get "alice warms the dir" (S.stat alice_p "/a/b/c"));
  Kernel.reset_stats kernel;
  ignore (get "alice stats the target" (S.stat alice_p "/a/b/c/target"));
  Alcotest.(check int) "no fallback" 0 (counter kernel "fastpath_fallback");
  Alcotest.(check int) "no walk" 0 (counter kernel "walk_components");
  Alcotest.(check int) "one refill" 1 (counter kernel "fastpath_pcc_refill");
  Alcotest.(check int) "a fastpath hit" 1 (counter kernel "fastpath_hit");
  (* The refilled entry now answers by itself. *)
  ignore (get "again" (S.stat alice_p "/a/b/c/target"));
  Alcotest.(check int) "no second refill" 1 (counter kernel "fastpath_pcc_refill")

let test_refill_honours_revoked_search () =
  (* The chmod bumps every descendant's version, so alice's entries under
     /pub die; the climb reaches /pub, which she may no longer search. *)
  let kernel, root_p = opt_kernel () in
  get "tree" (S.mkdir_p root_p "/pub/d");
  get "file" (S.write_file root_p "/pub/d/f" "x");
  let alice_p = Proc.spawn ~cred:(alice ()) kernel in
  ignore (get "alice warms" (S.stat alice_p "/pub/d"));
  ignore (get "root warms" (S.stat root_p "/pub/d/f"));
  get "revoke" (S.chmod root_p "/pub" 0o700);
  Kernel.reset_stats kernel;
  expect_err Errno.EACCES "revoked" (S.stat alice_p "/pub/d/f");
  Alcotest.(check int) "no refill" 0 (counter kernel "fastpath_pcc_refill");
  Alcotest.(check int) "walked" 1 (counter kernel "fastpath_fallback");
  ignore (get "root still reads" (S.stat root_p "/pub/d/f"))

let test_refill_stays_in_its_mount () =
  (* /a/b is bind-mounted under a directory alice may not search.  Her
     PCC vouches for /a, reached through the root mount; the target's DLHT
     entry names the bind path.  A climb that left the bind mount would
     borrow /a's entry for a prefix that runs through /private. *)
  let kernel, root_p = opt_kernel () in
  get "tree" (S.mkdir_p root_p "/a/b");
  get "file" (S.write_file root_p "/a/b/e" "x");
  get "private" (S.mkdir_p root_p "/private/c");
  get "close it" (S.chmod root_p "/private" 0o700);
  get "bind" (S.bind_mount root_p ~src:"/a/b" ~dst:"/private/c");
  let alice_p = Proc.spawn ~cred:(alice ()) kernel in
  ignore (get "alice warms /a/b" (S.stat alice_p "/a/b"));
  ignore (get "root warms the bind path" (S.stat root_p "/private/c/e"));
  Kernel.reset_stats kernel;
  expect_err Errno.EACCES "bind path" (S.stat alice_p "/private/c/e");
  Alcotest.(check int) "no refill" 0 (counter kernel "fastpath_pcc_refill");
  ignore (get "alice's own path" (S.stat alice_p "/a/b/e"))

let test_refill_respects_simulated_miss () =
  let kernel, p = setup () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  Fastpath.set_simulate_pcc_miss (Kernel.fastpath kernel) true;
  Kernel.reset_stats kernel;
  ignore (get "forced miss" (S.stat p "/a/b/c/target"));
  Alcotest.(check int) "fell back" 1 (counter kernel "fastpath_fallback");
  Alcotest.(check int) "no refill" 0 (counter kernel "fastpath_pcc_refill")

(* A sequential miss under a warm directory resumes there with a one-name
   suffix: the shared write-locked miss body walks that one component and
   publishes through the write-locked DLHT insert, which takes no stripe. *)
let test_sequential_miss_resumes_one_component () =
  let kernel, p = opt_kernel () in
  get "tree" (S.mkdir_p p "/w/sub");
  get "file" (S.write_file p "/w/sub/x" "x");
  Kernel.drop_caches kernel;
  ignore (get "warm dir" (S.stat p "/w/sub"));
  let dlht_acquired () =
    match Dlht.of_namespace_opt (Kernel.init_ns kernel) with
    | Some t -> (
      match Dlht.locktab t with
      | Some tab -> fst (Dcache_util.Locktab.totals tab)
      | None -> Alcotest.fail "optimized DLHT is not striped")
    | None -> Alcotest.fail "no DLHT"
  in
  let res0 = counter kernel "walk_resumed" in
  let comps0 = counter kernel "walk_components" in
  let acq0 = dlht_acquired () in
  ignore (get "miss" (S.stat p "/w/sub/x"));
  Alcotest.(check int) "one resumed walk" (res0 + 1) (counter kernel "walk_resumed");
  Alcotest.(check int) "one component" (comps0 + 1) (counter kernel "walk_components");
  Alcotest.(check int) "no DLHT stripe taken" acq0 (dlht_acquired ());
  let hits0 = counter kernel "fastpath_hit" in
  ignore (get "warm" (S.stat p "/w/sub/x"));
  Alcotest.(check int) "published: next lookup hits" (hits0 + 1) (counter kernel "fastpath_hit")

let suite =
  [
    Alcotest.test_case "fastpath hits after warm" `Quick test_fastpath_hits_after_warm;
    Alcotest.test_case "baseline never uses fastpath" `Quick test_baseline_never_uses_fastpath;
    Alcotest.test_case "PCC memoizes LSM checks" `Quick test_pcc_memoizes_lsm_checks;
    Alcotest.test_case "baseline reevaluates LSM" `Quick test_baseline_reevaluates_lsm;
    Alcotest.test_case "PCC shared across forks" `Quick test_pcc_shared_across_forks;
    Alcotest.test_case "commit_creds preserves PCC" `Quick test_commit_creds_preserves_pcc;
    Alcotest.test_case "rename shoots down fastpath" `Quick test_rename_shoots_down_fastpath;
    Alcotest.test_case "unlink leaves fast negative" `Quick test_unlink_leaves_negative_on_fastpath;
    Alcotest.test_case "rename leaves negative old name" `Quick test_rename_leaves_negative_for_old_name;
    Alcotest.test_case "deep negative dentries" `Quick test_deep_negative_dentries;
    Alcotest.test_case "completion drops negatives, deep chains included" `Quick
      test_completion_drops_negatives;
    Alcotest.test_case "deep ENOTDIR dentries" `Quick test_deep_enotdir_dentries;
    Alcotest.test_case "mkdir over negative keeps deep children" `Quick
      test_mkdir_over_deep_negative_keeps_children;
    Alcotest.test_case "file over negative drops children" `Quick
      test_file_creation_over_negative_drops_children;
    Alcotest.test_case "completeness serves readdir" `Quick
      test_completeness_serves_readdir_from_cache;
    Alcotest.test_case "completeness coherent with mutations" `Quick
      test_completeness_coherent_with_mutations;
    Alcotest.test_case "complete-dir miss is negative" `Quick test_completeness_miss_is_negative;
    Alcotest.test_case "mkdir marks complete" `Quick test_mkdir_marks_complete;
    Alcotest.test_case "readdir then stat promotes partials" `Quick
      test_readdir_then_stat_promotes_partials;
    Alcotest.test_case "lseek serves the snapshot, rewind re-lists" `Quick
      test_lseek_serves_snapshot;
    Alcotest.test_case "symlink alias fastpath" `Quick test_symlink_alias_fastpath;
    Alcotest.test_case "symlink replacement retargets" `Quick test_symlink_replacement_retargets;
    Alcotest.test_case "trailing symlink fastpath" `Quick test_trailing_symlink_fastpath;
    Alcotest.test_case "namespace-private DLHT" `Quick test_namespace_private_dlht;
    Alcotest.test_case "mount alias resignature" `Quick test_mount_alias_resignature;
    Alcotest.test_case "forced collisions: cross-cred safety" `Quick
      test_forced_collision_cross_cred_safety;
    Alcotest.test_case "eviction coherence" `Quick test_eviction_coherence;
    Alcotest.test_case "simulate PCC miss mode" `Quick test_simulate_pcc_miss_mode;
    Alcotest.test_case "dotdot: linux vs lexical" `Quick test_dotdot_linux_vs_lexical;
    Alcotest.test_case "missing lazy state is a miss" `Quick test_missing_state_is_a_miss;
    Alcotest.test_case "sequential miss resumes with one component" `Quick
      test_sequential_miss_resumes_one_component;
    Alcotest.test_case "pcc unit" `Quick test_pcc_unit;
    Alcotest.test_case "dynamic PCC grows" `Quick test_dynamic_pcc_grows;
    Alcotest.test_case "a fitting PCC keeps its size" `Quick test_pcc_fitting_set_keeps_size;
  ]
  @ tc_both "CLOCK: a hit dentry outlives an unmarked sibling" test_clock_spares_hit_dentry

let test_ro_rw_alias_flipflop () =
  (* The same subtree bind-mounted read-only and read-write: the per-dentry
     "one mount at a time" policy (§4.3) must never let the ro alias write
     or the rw alias fail, no matter the access order. *)
  let kernel, p = opt_kernel () in
  get "data" (S.mkdir_p p "/data");
  get "rw" (S.mkdir_p p "/rw");
  get "ro" (S.mkdir_p p "/ro");
  get "bind rw" (S.bind_mount p ~src:"/data" ~dst:"/rw");
  get "bind ro" (S.bind_mount ~readonly:true p ~src:"/data" ~dst:"/ro");
  for i = 1 to 10 do
    let name = Printf.sprintf "f%d" i in
    get "write via rw" (S.write_file p ("/rw/" ^ name) "v");
    ignore (get "read via ro" (S.read_file p ("/ro/" ^ name)));
    expect_err Errno.EROFS "ro write" (S.write_file p ("/ro/" ^ name) "nope");
    ignore (get "stat ro" (S.stat p ("/ro/" ^ name)));
    get "write again via rw" (S.write_file p ("/rw/" ^ name) "v2");
    Alcotest.(check string) "content" "v2" (get "read" (S.read_file p ("/rw/" ^ name)))
  done;
  ignore kernel

let test_single_bucket_primary_table () =
  (* A one-bucket primary hash table turns every lookup into a chain scan:
     pathological but must stay correct. *)
  let config = { Config.optimized with Config.dcache_buckets = 1 } in
  let _, p = ram_kernel ~config () in
  get "tree" (S.mkdir_p p "/a/b");
  for i = 0 to 49 do
    get "f" (S.write_file p (Printf.sprintf "/a/b/f%d" i) (string_of_int i))
  done;
  for i = 0 to 49 do
    Alcotest.(check string) "content" (string_of_int i)
      (get "read" (S.read_file p (Printf.sprintf "/a/b/f%d" i)))
  done

let test_symlink_chains () =
  let kernel, p = setup () in
  get "l1" (S.symlink p ~target:"/a/b/c/target" "/l1");
  get "l2" (S.symlink p ~target:"/l1" "/l2");
  get "l3" (S.symlink p ~target:"/l2" "/l3");
  Alcotest.(check string) "through 3 links" "payload!" (get "read" (S.read_file p "/l3"));
  Alcotest.(check string) "again (cached)" "payload!" (get "read" (S.read_file p "/l3"));
  let l = get "lstat" (S.lstat p "/l3") in
  Alcotest.(check bool) "lstat sees link" true
    (File_kind.equal l.Attr.kind File_kind.Symlink);
  (* Retarget the middle of the chain. *)
  get "other" (S.write_file p "/other_target" "other!");
  get "rm l2" (S.unlink p "/l2");
  get "l2'" (S.symlink p ~target:"/other_target" "/l2");
  Alcotest.(check string) "retargeted chain" "other!" (get "read" (S.read_file p "/l3"));
  ignore kernel

let test_pcc_capacity_eviction_correctness () =
  (* A tiny static PCC constantly evicts entries; lookups must stay correct
     and fall back rather than serve stale permissions. *)
  let config = { Config.optimized with Config.pcc_entries = 16 } in
  let kernel, root_p = ram_kernel ~config () in
  get "dir" (S.mkdir_p root_p "/pub");
  for i = 0 to 99 do
    get "f" (S.write_file root_p (Printf.sprintf "/pub/g%d" i) (string_of_int i))
  done;
  let alice_p = Proc.spawn ~cred:(alice ()) kernel in
  for round = 1 to 2 do
    ignore round;
    for i = 0 to 99 do
      Alcotest.(check string) "right file" (string_of_int i)
        (get "read" (S.read_file alice_p (Printf.sprintf "/pub/g%d" i)))
    done
  done;
  (* Revoke and verify no stale PCC entry survives the churn. *)
  get "revoke" (S.chmod root_p "/pub" 0o700);
  for i = 0 to 99 do
    expect_err Errno.EACCES "revoked" (S.stat alice_p (Printf.sprintf "/pub/g%d" i))
  done

let extra_suite =
  [
    Alcotest.test_case "ro/rw bind alias flip-flop" `Quick test_ro_rw_alias_flipflop;
    Alcotest.test_case "single-bucket primary table" `Quick test_single_bucket_primary_table;
    Alcotest.test_case "symlink chains" `Quick test_symlink_chains;
    Alcotest.test_case "tiny PCC eviction correctness" `Quick
      test_pcc_capacity_eviction_correctness;
  ]

let test_chroot_symlink_resolution () =
  (* An absolute symlink resolves against the process root: a chrooted
     process must get the jail's file, warm or cold — the fastpath's cached
     target signature is computed against the namespace root and must not
     leak into the jail. *)
  let kernel, p = opt_kernel () in
  get "host target" (S.mkdir_p p "/etc");
  get "host file" (S.write_file p "/etc/conf" "HOST");
  get "jail" (S.mkdir_p p "/jail/etc");
  get "jail file" (S.write_file p "/jail/etc/conf" "JAIL");
  get "link" (S.symlink p ~target:"/etc/conf" "/jail/ln");
  (* Warm the link from the host's perspective: /jail/ln -> /etc/conf. *)
  Alcotest.(check string) "host follows to host file" "HOST"
    (get "host read" (S.read_file p "/jail/ln"));
  Alcotest.(check string) "host follows again (fastpath)" "HOST"
    (get "host read2" (S.read_file p "/jail/ln"));
  let jailed = Proc.fork p in
  get "chroot" (S.chroot jailed "/jail");
  Alcotest.(check string) "jailed follows to jail file" "JAIL"
    (get "jail read" (S.read_file jailed "/ln"));
  Alcotest.(check string) "jailed follows again" "JAIL"
    (get "jail read2" (S.read_file jailed "/ln"));
  (* And the host still gets its own. *)
  Alcotest.(check string) "host unchanged" "HOST" (get "host read3" (S.read_file p "/jail/ln"));
  ignore kernel

let chroot_suite =
  [ Alcotest.test_case "chroot-safe symlink fastpath" `Quick test_chroot_symlink_resolution ]

let test_completeness_integration () =
  (* Completeness lives in the dcache (§2.3/§5.1): one backend listing
     serves repeated readdirs, and the names it promotes answer
     stat-after-readdir and absent names with no backend lookup.  With
     completeness off, every readdir lists the backend and every listed or
     absent name is looked up.  Both arms run on one counting fs. *)
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let setup = Proc.spawn (Kernel.create ~config:Config.optimized ~root_fs:fs ()) in
  get "dir" (S.mkdir_p setup "/dir");
  for i = 1 to 12 do
    get "f" (S.write_file setup (Printf.sprintf "/dir/e%d" i) "x")
  done;
  let arm completes =
    let config = { Config.optimized with Config.dir_completeness = completes } in
    let p = Proc.spawn (Kernel.create ~config ~root_fs:fs ()) in
    ignore (get "readdir1" (S.readdir_path p "/dir"));
    let readdirs = fs_calls "readdir" in
    let names = get "readdir2" (S.readdir_path p "/dir") in
    let repeat_readdirs = fs_calls "readdir" - readdirs in
    let lookups = fs_calls "lookup" in
    List.iter
      (fun e -> ignore (get "stat" (S.stat p ("/dir/" ^ e.Dcache_fs.Fs_intf.name))))
      names;
    let stat_lookups = fs_calls "lookup" - lookups in
    let lookups = fs_calls "lookup" in
    expect_err Errno.ENOENT "absent" (S.stat p "/dir/absent0");
    (List.length names, repeat_readdirs, stat_lookups, fs_calls "lookup" - lookups)
  in
  let check label (n, readdirs, lookups, miss) (n', readdirs', lookups', miss') =
    Alcotest.(check int) (label ^ ": entries") n n';
    Alcotest.(check int) (label ^ ": fs readdirs of a repeated readdir") readdirs readdirs';
    Alcotest.(check int) (label ^ ": fs lookups of stat-after-readdir") lookups lookups';
    Alcotest.(check int) (label ^ ": fs lookups of an absent name") miss miss'
  in
  check "completeness off" (12, 1, 12, 1) (arm false);
  check "completeness on" (12, 0, 0, 0) (arm true)

let completeness_integration_suite =
  [
    Alcotest.test_case "completeness integration: fs calls with and without" `Quick
      test_completeness_integration;
  ]

let test_dlht_membership_unit () =
  (* Module-level check of the one-DLHT-at-a-time policy (§4.3). *)
  let kernel, p = setup () in
  ignore (get "warm" (S.stat p "/a/b/c/target"));
  let child = Proc.fork p in
  get "unshare" (S.unshare_mount_ns child);
  ignore (get "warm in ns2" (S.stat child "/a/b/c/target"));
  (* The dentry moved to the child namespace's DLHT: the parent namespace's
     table no longer holds it. *)
  let find_in ns =
    let dlht =
      Dcache_core.Dlht.of_namespace ~buckets:(Kernel.config kernel).Config.dlht_buckets
        ~counters:(Kernel.counters kernel) ns
    in
    let key = Dcache_core.Fastpath.key (Kernel.fastpath kernel) in
    (* recover the signature by re-resolving through the child; simpler:
       population count *)
    ignore key;
    Dcache_core.Dlht.population dlht
  in
  Alcotest.(check bool) "child table populated" true (find_in child.Proc.ns > 0);
  ignore (get "parent re-warms" (S.stat p "/a/b/c/target"));
  Alcotest.(check bool) "tables stay disjoint per dentry" true
    (find_in p.Proc.ns > 0)

let test_signature_key_fixed_seed () =
  (* The signature key comes from one fixed seed (0x5eed), whatever the
     configuration: kernels with the same [sig_bits] compute the same
     signatures, and narrowing [sig_bits] changes only what [equal]
     compares. *)
  let module Signature = Dcache_sig.Signature in
  let paths = [ ""; "/"; "/a/b/c/target"; "rel/x"; String.make 300 'q' ] in
  let sig_of config path =
    let kernel, _ = opt_kernel ~config () in
    let key = Fastpath.key (Kernel.fastpath kernel) in
    Alcotest.(check int) "sig_bits from the config (clamped)"
      (Int.min Signature.max_sig_bits config.Config.sig_bits)
      (Signature.sig_bits key);
    Signature.to_hex (Signature.hash_string key path)
  in
  List.iter
    (fun path ->
      let reference =
        Signature.to_hex
          (Signature.hash_string (Signature.create_key ~seed:0x5eed ()) path)
      in
      List.iter
        (fun (label, config) ->
          Alcotest.(check string) (label ^ ": " ^ path) reference (sig_of config path))
        [ ("baseline", Config.baseline); ("optimized", Config.optimized);
          ("optimized, 16 sig bits", { Config.optimized with Config.sig_bits = 16 }) ])
    paths

let dlht_suite =
  [ Alcotest.test_case "DLHT membership across namespaces" `Quick test_dlht_membership_unit;
    Alcotest.test_case "signature key: one fixed seed for every config" `Quick
      test_signature_key_fixed_seed ]

let test_mutation_between_chunks_keeps_snapshot () =
  (* The stream lists once, on its first call: an unlink between chunks
     leaves the open stream's snapshot as it was, while the cache (promoted
     by that one listing) tracks the unlink — a fresh listing equals the
     backend's, and a miss under the complete directory costs no lookup. *)
  let fs, fs_calls = counting_fs (Dcache_fs.Ramfs.create ()) in
  let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
  let p = Proc.spawn kernel in
  get "dir" (S.mkdir_p p "/d");
  for i = 1 to 8 do
    get "f" (S.write_file p (Printf.sprintf "/d/m%d" i) "x")
  done;
  Kernel.drop_caches kernel;
  let fd = get "open" (S.openf p "/d" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
  let first = get "chunk" (S.getdents p fd 2) in
  get "mutate mid-sequence" (S.unlink p "/d/m5");
  let rec drain acc =
    match get "drain" (S.getdents p fd 4) with [] -> acc | c -> drain (acc @ c)
  in
  let streamed = List.sort compare (dirent_names (drain first)) in
  get "close" (S.close p fd);
  Alcotest.(check (list string)) "snapshot unchanged"
    (List.init 8 (fun i -> Printf.sprintf "m%d" (i + 1)))
    streamed;
  let dir_ino = (get "stat d" (S.stat p "/d")).Dcache_types.Attr.ino in
  let backend =
    match fs.Dcache_fs.Fs_intf.readdir dir_ino with
    | Ok l -> List.sort compare (dirent_names l)
    | Error e -> Alcotest.failf "backend readdir: %s" (Errno.to_string e)
  in
  Alcotest.(check (list string)) "fresh listing is the backend's" backend
    (List.sort compare (dirent_names (get "readdir" (S.readdir_path p "/d"))));
  let lookups = fs_calls "lookup" in
  expect_err Errno.ENOENT "fresh miss" (S.stat p "/d/neverexisted");
  expect_err Errno.ENOENT "unlinked" (S.stat p "/d/m5");
  Alcotest.(check int) "absent names cost no lookup" lookups (fs_calls "lookup")

(* --- per-kernel dentry ids --- *)

let test_dentry_ids_per_kernel () =
  (* Dentry ids are numbered per dcache: the same tree built in two fresh
     kernels of one program gets the same ids, so the PCC's set conflicts,
     and the refills they cause, are the same in both. *)
  let files = 2000 in
  let path i = Printf.sprintf "/ids/d%02d/f%04d" (i mod 30) i in
  let run () =
    let kernel, p = opt_kernel () in
    for d = 0 to 29 do
      get "dir" (S.mkdir_p p (Printf.sprintf "/ids/d%02d" d))
    done;
    for i = 0 to files - 1 do
      get "f" (S.write_file p (path i) "x")
    done;
    Kernel.reset_stats kernel;
    for _ = 1 to 3 do
      for i = 0 to files - 1 do
        ignore (get "stat" (S.stat p (path i)))
      done
    done;
    let refills = counter kernel "fastpath_pcc_refill" in
    let fp = Kernel.fastpath kernel and ctx = Proc.walk_ctx p in
    let id_of i =
      get "lookup"
        (Fastpath.lookup_into fp ctx (path i) ~within:(fun _ d ->
             Ok d.Dcache_vfs.Types.d_id))
    in
    (List.init files id_of, refills)
  in
  let ids_a, refills_a = run () in
  let ids_b, refills_b = run () in
  Alcotest.(check (list int)) "same tree, same ids" ids_a ids_b;
  Alcotest.(check bool) "the PCC refilled" true (refills_a > 0);
  Alcotest.(check int) "same refills" refills_a refills_b

let chunked_mutation_suite =
  [ Alcotest.test_case "mutation between getdents chunks keeps the snapshot" `Quick
      test_mutation_between_chunks_keeps_snapshot ]

let refill_suite =
  [
    Alcotest.test_case "PCC refill stops at a valid parent" `Quick
      test_refill_stops_at_valid_parent;
    Alcotest.test_case "PCC refill honours a revoked search" `Quick
      test_refill_honours_revoked_search;
    Alcotest.test_case "PCC refill respects a simulated miss" `Quick
      test_refill_respects_simulated_miss;
    Alcotest.test_case "PCC refill stays in its mount" `Quick test_refill_stays_in_its_mount;
    Alcotest.test_case "dentry ids and PCC refills are per kernel" `Quick
      test_dentry_ids_per_kernel;
  ]

(* The DLFS-style on-disk path-hash comparator (paper §7). *)

open Dcache_types
module Dlfs = Dcache_comparators.Dlfs
module Pagecache = Dcache_storage.Pagecache
module Blockdev = Dcache_storage.Blockdev
module Vclock = Dcache_util.Vclock

let errno = Alcotest.testable (Fmt.of_to_string Errno.to_string) ( = )

let get what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

let expect_err expected what = function
  | Ok _ -> Alcotest.failf "%s: expected %s" what (Errno.to_string expected)
  | Error e -> Alcotest.check errno what expected e

let make () =
  let clock = Vclock.create () in
  let cache = Pagecache.create ~capacity_pages:16384 (Blockdev.create clock) in
  (Dlfs.mkfs_and_mount cache, cache, clock)

let test_create_lookup () =
  let t, _, _ = make () in
  get "mkdir a" (Dlfs.create t "/a" File_kind.Directory);
  get "mkdir a/b" (Dlfs.create t "/a/b" File_kind.Directory);
  get "file" (Dlfs.create t "/a/b/f" File_kind.Regular);
  let e = get "lookup" (Dlfs.lookup t "/a/b/f") in
  Alcotest.(check bool) "regular" true (File_kind.equal e.Dlfs.kind File_kind.Regular);
  Alcotest.(check string) "canonical path" "a/b/f" e.Dlfs.path;
  (* path variations normalize *)
  ignore (get "dots" (Dlfs.lookup t "//a/./b//f"));
  expect_err Errno.ENOENT "missing" (Dlfs.lookup t "/a/b/ghost");
  expect_err Errno.ENOENT "no parent" (Dlfs.create t "/nodir/child" File_kind.Regular);
  expect_err Errno.EEXIST "dup" (Dlfs.create t "/a/b/f" File_kind.Regular);
  expect_err Errno.ENOTDIR "under file" (Dlfs.create t "/a/b/f/x" File_kind.Regular)

let test_remove_and_readdir () =
  let t, _, _ = make () in
  get "a" (Dlfs.create t "/a" File_kind.Directory);
  get "x" (Dlfs.create t "/a/x" File_kind.Regular);
  get "y" (Dlfs.create t "/a/y" File_kind.Regular);
  Alcotest.(check (list string)) "listing" [ "x"; "y" ] (get "readdir" (Dlfs.readdir t "/a"));
  expect_err Errno.ENOTEMPTY "non-empty" (Dlfs.remove t "/a");
  get "rm x" (Dlfs.remove t "/a/x");
  get "rm y" (Dlfs.remove t "/a/y");
  get "rm a" (Dlfs.remove t "/a");
  expect_err Errno.ENOENT "gone" (Dlfs.lookup t "/a")

let build_tree t ~breadth ~depth =
  let count = ref 0 in
  let rec fill prefix level =
    for i = 0 to breadth - 1 do
      let dir = Printf.sprintf "%s/d%d" prefix i in
      get "mkdir" (Dlfs.create t dir File_kind.Directory);
      incr count;
      get "file" (Dlfs.create t (dir ^ "/leaf") File_kind.Regular);
      incr count;
      if level > 1 then fill dir (level - 1)
    done
  in
  get "root dir" (Dlfs.create t "/tree" File_kind.Directory);
  fill "/tree" depth;
  !count + 1

let test_rename_rehashes_subtree () =
  let t, _, clock = make () in
  let records = build_tree t ~breadth:3 ~depth:3 in
  Vclock.reset clock;
  let rewritten = get "rename" (Dlfs.rename_dir t "/tree" "/moved") in
  Alcotest.(check int) "every record rewritten" records rewritten;
  Alcotest.(check bool) "disk time charged" true (Vclock.elapsed_ns clock > 0L);
  expect_err Errno.ENOENT "old root gone" (Dlfs.lookup t "/tree/d0/leaf");
  let e = get "new path" (Dlfs.lookup t "/moved/d1/d2/leaf") in
  Alcotest.(check bool) "still a file" true (File_kind.equal e.Dlfs.kind File_kind.Regular);
  Alcotest.(check int) "record count stable" (records + 1) (Dlfs.record_count t)

let test_persistence () =
  let clock = Vclock.create () in
  let cache = Pagecache.create ~capacity_pages:16384 (Blockdev.create clock) in
  let t = Dlfs.mkfs_and_mount cache in
  get "d" (Dlfs.create t "/persist" File_kind.Directory);
  get "f" (Dlfs.create t "/persist/file" File_kind.Regular);
  Pagecache.flush cache;
  let t2 = get "remount" (Dlfs.mount cache) in
  ignore (get "found" (Dlfs.lookup t2 "/persist/file"));
  Alcotest.(check int) "records survive" (Dlfs.record_count t) (Dlfs.record_count t2)

let test_lookup_io_is_constant () =
  (* The whole point of DLFS: lookup cost does not grow with depth. *)
  let t, cache, _ = make () in
  let rec deep prefix n =
    if n > 0 then begin
      let dir = prefix ^ "/lvl" in
      get "mkdir" (Dlfs.create t dir File_kind.Directory);
      deep dir (n - 1)
    end
  in
  get "top" (Dlfs.create t "/deep" File_kind.Directory);
  deep "/deep" 16;
  let path = "/deep" ^ String.concat "" (List.init 16 (fun _ -> "/lvl")) in
  ignore (get "warm" (Dlfs.lookup t path));
  Pagecache.reset_stats cache;
  ignore (get "lookup" (Dlfs.lookup t path));
  let accesses = Pagecache.hits cache + Pagecache.misses cache in
  Alcotest.(check bool) "constant accesses (<= 4)" true (accesses <= 4)

let suite =
  [
    Alcotest.test_case "create and lookup" `Quick test_create_lookup;
    Alcotest.test_case "remove and readdir" `Quick test_remove_and_readdir;
    Alcotest.test_case "rename rehashes the whole subtree" `Quick test_rename_rehashes_subtree;
    Alcotest.test_case "persistence across remount" `Quick test_persistence;
    Alcotest.test_case "lookup I/O independent of depth" `Quick test_lookup_io_is_constant;
  ]

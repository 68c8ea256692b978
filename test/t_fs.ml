(* Tests for the low-level file systems (ramfs, extfs, pseudofs).  The
   common POSIX-structural behaviours run against both ramfs and extfs via
   one parameterized list. *)

open Dcache_types
module Fs = Dcache_fs.Fs_intf
module Ramfs = Dcache_fs.Ramfs
module Extfs = Dcache_fs.Extfs
module Pseudofs = Dcache_fs.Pseudofs
module Pagecache = Dcache_storage.Pagecache
module Blockdev = Dcache_storage.Blockdev
module Vclock = Dcache_util.Vclock

let errno = Alcotest.testable (Fmt.of_to_string Errno.to_string) ( = )

let get what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

let expect_err expected what = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got success" what (Errno.to_string expected)
  | Error e -> Alcotest.check errno what expected e

let fresh_extfs_cache () =
  let clock = Vclock.create () in
  let device = Blockdev.create clock in
  Pagecache.create ~capacity_pages:16384 device

let make_extfs () = Extfs.mkfs_and_mount (fresh_extfs_cache ())

let mkdir fs dir name =
  get "mkdir" (fs.Fs.create dir name File_kind.Directory Mode.default_dir ~uid:0 ~gid:0)

let mkfile fs dir name =
  get "create" (fs.Fs.create dir name File_kind.Regular Mode.default_file ~uid:0 ~gid:0)

let common_tests label make_fs =
  let t name f =
    Alcotest.test_case (Printf.sprintf "%s: %s" label name) `Quick (fun () -> f (make_fs ()))
  in
  [
    t "create and lookup" (fun fs ->
        let attr = mkfile fs fs.Fs.root_ino "hello" in
        let found = get "lookup" (fs.Fs.lookup fs.Fs.root_ino "hello") in
        Alcotest.(check int) "same ino" attr.Attr.ino found.Attr.ino;
        Alcotest.(check bool) "regular" true (File_kind.equal found.Attr.kind File_kind.Regular));
    t "lookup missing is ENOENT" (fun fs ->
        expect_err Errno.ENOENT "missing" (fs.Fs.lookup fs.Fs.root_ino "ghost"));
    t "create duplicate is EEXIST" (fun fs ->
        ignore (mkfile fs fs.Fs.root_ino "dup");
        expect_err Errno.EEXIST "dup"
          (fs.Fs.create fs.Fs.root_ino "dup" File_kind.Regular 0o644 ~uid:0 ~gid:0));
    t "mkdir bumps parent nlink" (fun fs ->
        let before = (get "getattr" (fs.Fs.getattr fs.Fs.root_ino)).Attr.nlink in
        ignore (mkdir fs fs.Fs.root_ino "sub");
        let after = (get "getattr" (fs.Fs.getattr fs.Fs.root_ino)).Attr.nlink in
        Alcotest.(check int) "nlink+1" (before + 1) after);
    t "write then read" (fun fs ->
        let attr = mkfile fs fs.Fs.root_ino "data" in
        let n = get "write" (fs.Fs.write attr.Attr.ino ~off:0 "abcdef") in
        Alcotest.(check int) "wrote" 6 n;
        Alcotest.(check string) "read" "abcdef"
          (get "read" (fs.Fs.read attr.Attr.ino ~off:0 ~len:100));
        Alcotest.(check string) "offset read" "cde"
          (get "read" (fs.Fs.read attr.Attr.ino ~off:2 ~len:3)));
    t "sparse write reads zeros" (fun fs ->
        let attr = mkfile fs fs.Fs.root_ino "sparse" in
        ignore (get "write" (fs.Fs.write attr.Attr.ino ~off:10000 "end"));
        let data = get "read" (fs.Fs.read attr.Attr.ino ~off:9998 ~len:5) in
        Alcotest.(check string) "hole then data" "\000\000end" data;
        let size = (get "getattr" (fs.Fs.getattr attr.Attr.ino)).Attr.size in
        Alcotest.(check int) "size" 10003 size);
    t "large file spans indirect blocks" (fun fs ->
        let attr = mkfile fs fs.Fs.root_ino "big" in
        let chunk = String.make 4096 'Q' in
        (* 60 blocks: beyond the 12 direct pointers of extfs *)
        for i = 0 to 59 do
          ignore (get "write big" (fs.Fs.write attr.Attr.ino ~off:(i * 4096) chunk))
        done;
        let back = get "read big" (fs.Fs.read attr.Attr.ino ~off:(55 * 4096) ~len:8) in
        Alcotest.(check string) "far data" "QQQQQQQQ" back;
        Alcotest.(check int) "size" (60 * 4096)
          (get "getattr" (fs.Fs.getattr attr.Attr.ino)).Attr.size);
    t "unlink removes and frees" (fun fs ->
        let attr = mkfile fs fs.Fs.root_ino "gone" in
        get "unlink" (fs.Fs.unlink fs.Fs.root_ino "gone");
        expect_err Errno.ENOENT "after unlink" (fs.Fs.lookup fs.Fs.root_ino "gone");
        ignore attr);
    t "unlink directory is EISDIR" (fun fs ->
        ignore (mkdir fs fs.Fs.root_ino "d");
        expect_err Errno.EISDIR "unlink dir" (fs.Fs.unlink fs.Fs.root_ino "d"));
    t "rmdir requires empty" (fun fs ->
        let d = mkdir fs fs.Fs.root_ino "d" in
        ignore (mkfile fs d.Attr.ino "f");
        expect_err Errno.ENOTEMPTY "non-empty" (fs.Fs.rmdir fs.Fs.root_ino "d");
        get "unlink child" (fs.Fs.unlink d.Attr.ino "f");
        get "rmdir" (fs.Fs.rmdir fs.Fs.root_ino "d");
        expect_err Errno.ENOENT "gone" (fs.Fs.lookup fs.Fs.root_ino "d"));
    t "rmdir file is ENOTDIR" (fun fs ->
        ignore (mkfile fs fs.Fs.root_ino "f");
        expect_err Errno.ENOTDIR "rmdir file" (fs.Fs.rmdir fs.Fs.root_ino "f"));
    t "readdir lists entries" (fun fs ->
        ignore (mkfile fs fs.Fs.root_ino "a");
        ignore (mkfile fs fs.Fs.root_ino "b");
        ignore (mkdir fs fs.Fs.root_ino "c");
        let names =
          get "readdir" (fs.Fs.readdir fs.Fs.root_ino)
          |> List.map (fun e -> e.Fs.name)
          |> List.sort compare
        in
        Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ] names);
    t "hard links share the inode" (fun fs ->
        let a = mkfile fs fs.Fs.root_ino "orig" in
        ignore (get "write" (fs.Fs.write a.Attr.ino ~off:0 "shared"));
        let l = get "link" (fs.Fs.link fs.Fs.root_ino "alias" a.Attr.ino) in
        Alcotest.(check int) "same ino" a.Attr.ino l.Attr.ino;
        Alcotest.(check int) "nlink" 2 l.Attr.nlink;
        Alcotest.(check string) "content via link" "shared"
          (get "read" (fs.Fs.read l.Attr.ino ~off:0 ~len:10));
        get "unlink orig" (fs.Fs.unlink fs.Fs.root_ino "orig");
        Alcotest.(check string) "still readable" "shared"
          (get "read" (fs.Fs.read l.Attr.ino ~off:0 ~len:10));
        Alcotest.(check int) "nlink back to 1" 1
          (get "getattr" (fs.Fs.getattr l.Attr.ino)).Attr.nlink);
    t "link to directory is EPERM" (fun fs ->
        let d = mkdir fs fs.Fs.root_ino "d" in
        expect_err Errno.EPERM "dir link" (fs.Fs.link fs.Fs.root_ino "dl" d.Attr.ino));
    t "symlink and readlink" (fun fs ->
        let l = get "symlink" (fs.Fs.symlink fs.Fs.root_ino "l" ~target:"/x/y" ~uid:0 ~gid:0) in
        Alcotest.(check bool) "kind" true (File_kind.equal l.Attr.kind File_kind.Symlink);
        Alcotest.(check string) "target" "/x/y" (get "readlink" (fs.Fs.readlink l.Attr.ino));
        ignore (mkfile fs fs.Fs.root_ino "plain");
        let plain = get "lookup" (fs.Fs.lookup fs.Fs.root_ino "plain") in
        expect_err Errno.EINVAL "readlink file" (fs.Fs.readlink plain.Attr.ino));
    t "rename within directory" (fun fs ->
        ignore (mkfile fs fs.Fs.root_ino "old");
        get "rename" (fs.Fs.rename fs.Fs.root_ino "old" fs.Fs.root_ino "new");
        expect_err Errno.ENOENT "old gone" (fs.Fs.lookup fs.Fs.root_ino "old");
        ignore (get "new exists" (fs.Fs.lookup fs.Fs.root_ino "new")));
    t "rename across directories moves dir nlink" (fun fs ->
        let a = mkdir fs fs.Fs.root_ino "a" in
        let b = mkdir fs fs.Fs.root_ino "b" in
        ignore (mkdir fs a.Attr.ino "sub");
        let a_nlink () = (get "a" (fs.Fs.getattr a.Attr.ino)).Attr.nlink in
        let b_nlink () = (get "b" (fs.Fs.getattr b.Attr.ino)).Attr.nlink in
        Alcotest.(check int) "a nlink 3" 3 (a_nlink ());
        get "rename dir" (fs.Fs.rename a.Attr.ino "sub" b.Attr.ino "sub");
        Alcotest.(check int) "a nlink 2" 2 (a_nlink ());
        Alcotest.(check int) "b nlink 3" 3 (b_nlink ()));
    t "rename replaces a file target" (fun fs ->
        let src = mkfile fs fs.Fs.root_ino "src" in
        ignore (get "w" (fs.Fs.write src.Attr.ino ~off:0 "SRC"));
        ignore (mkfile fs fs.Fs.root_ino "dst");
        get "rename over" (fs.Fs.rename fs.Fs.root_ino "src" fs.Fs.root_ino "dst");
        let dst = get "lookup" (fs.Fs.lookup fs.Fs.root_ino "dst") in
        Alcotest.(check string) "content is source's" "SRC"
          (get "read" (fs.Fs.read dst.Attr.ino ~off:0 ~len:3)));
    t "rename dir over non-empty dir is ENOTEMPTY" (fun fs ->
        ignore (mkdir fs fs.Fs.root_ino "s");
        let d = mkdir fs fs.Fs.root_ino "d" in
        ignore (mkfile fs d.Attr.ino "kid");
        expect_err Errno.ENOTEMPTY "over non-empty"
          (fs.Fs.rename fs.Fs.root_ino "s" fs.Fs.root_ino "d"));
    t "rename file over dir is EISDIR" (fun fs ->
        ignore (mkfile fs fs.Fs.root_ino "f");
        ignore (mkdir fs fs.Fs.root_ino "d");
        expect_err Errno.EISDIR "file over dir"
          (fs.Fs.rename fs.Fs.root_ino "f" fs.Fs.root_ino "d"));
    t "setattr mode/uid/label" (fun fs ->
        let a = mkfile fs fs.Fs.root_ino "f" in
        let changed =
          get "setattr"
            (fs.Fs.setattr a.Attr.ino
               { Fs.no_setattr with
                 Fs.set_mode = Some 0o600; set_uid = Some 42; set_label = Some (Some "top") })
        in
        Alcotest.(check int) "mode" 0o600 changed.Attr.mode;
        Alcotest.(check int) "uid" 42 changed.Attr.uid;
        Alcotest.(check (option string)) "label" (Some "top") changed.Attr.label);
    t "truncate shrinks" (fun fs ->
        let a = mkfile fs fs.Fs.root_ino "f" in
        ignore (get "w" (fs.Fs.write a.Attr.ino ~off:0 "0123456789"));
        ignore (get "trunc" (fs.Fs.setattr a.Attr.ino { Fs.no_setattr with Fs.set_size = Some 4 }));
        Alcotest.(check string) "shrunk" "0123"
          (get "read" (fs.Fs.read a.Attr.ino ~off:0 ~len:100)));
    t "name too long" (fun fs ->
        let name = String.make 300 'n' in
        expect_err Errno.ENAMETOOLONG "long" (fs.Fs.lookup fs.Fs.root_ino name);
        expect_err Errno.ENAMETOOLONG "create long"
          (fs.Fs.create fs.Fs.root_ino name File_kind.Regular 0o644 ~uid:0 ~gid:0));
  ]

(* --- extfs specifics --- *)

let test_extfs_remount_persistence () =
  let cache = fresh_extfs_cache () in
  let fs = Extfs.mkfs_and_mount cache in
  let d = mkdir fs fs.Fs.root_ino "sub" in
  let f = mkfile fs d.Attr.ino "file" in
  ignore (get "write" (fs.Fs.write f.Attr.ino ~off:0 "persisted"));
  ignore (get "symlink" (fs.Fs.symlink fs.Fs.root_ino "ln" ~target:"sub/file" ~uid:0 ~gid:0));
  fs.Fs.sync ();
  (* Remount from the same device. *)
  let fs2 = get "mount" (Extfs.mount cache) in
  let d2 = get "lookup sub" (fs2.Fs.lookup fs2.Fs.root_ino "sub") in
  let f2 = get "lookup file" (fs2.Fs.lookup d2.Attr.ino "file") in
  Alcotest.(check string) "content survived" "persisted"
    (get "read" (fs2.Fs.read f2.Attr.ino ~off:0 ~len:100));
  let l2 = get "lookup ln" (fs2.Fs.lookup fs2.Fs.root_ino "ln") in
  Alcotest.(check string) "symlink survived" "sub/file"
    (get "readlink" (fs2.Fs.readlink l2.Attr.ino))

let test_extfs_bad_superblock () =
  let cache = fresh_extfs_cache () in
  (* No mkfs: magic is zero. *)
  match Extfs.mount cache with
  | Error Errno.EINVAL -> ()
  | Error e -> Alcotest.failf "expected EINVAL, got %s" (Errno.to_string e)
  | Ok _ -> Alcotest.fail "mounted garbage"

let test_extfs_many_entries_in_dir () =
  let fs = make_extfs () in
  for i = 0 to 499 do
    ignore (mkfile fs fs.Fs.root_ino (Printf.sprintf "file%03d" i))
  done;
  let entries = get "readdir" (fs.Fs.readdir fs.Fs.root_ino) in
  Alcotest.(check int) "500 entries" 500 (List.length entries);
  (* Unlink half, then reuse the tombstones. *)
  for i = 0 to 499 do
    if i mod 2 = 0 then get "unlink" (fs.Fs.unlink fs.Fs.root_ino (Printf.sprintf "file%03d" i))
  done;
  Alcotest.(check int) "250 left" 250 (List.length (get "rd" (fs.Fs.readdir fs.Fs.root_ino)));
  for i = 0 to 99 do
    ignore (mkfile fs fs.Fs.root_ino (Printf.sprintf "NEWF%03d" i))
  done;
  Alcotest.(check int) "350 after reuse" 350
    (List.length (get "rd" (fs.Fs.readdir fs.Fs.root_ino)))

(* Extfs compares dirent names in place: length first, then bytes. *)
let test_extfs_find_entry_in_place () =
  let fs = make_extfs () in
  let root = fs.Fs.root_ino in
  let lookup name = fs.Fs.lookup root name in
  let x = mkfile fs root "mailX" in
  let y = mkfile fs root "mailY" in
  let z = mkdir fs root "mailZ" in
  let long = mkfile fs root "mailXX" in
  let ino name = (get name (lookup name)).Attr.ino in
  Alcotest.(check int) "last byte X" x.Attr.ino (ino "mailX");
  Alcotest.(check int) "last byte Y" y.Attr.ino (ino "mailY");
  Alcotest.(check int) "last byte Z" z.Attr.ino (ino "mailZ");
  Alcotest.(check int) "longer name" long.Attr.ino (ino "mailXX");
  expect_err Errno.ENOENT "prefix of a name" (lookup "mail");
  expect_err Errno.ENOENT "name plus a byte" (lookup "mailYY");
  expect_err Errno.ENOENT "same length, other last byte" (lookup "mailW");
  (* A tombstone keeps its name bytes: the search must skip it, and must
     not take the live name it is a prefix of. *)
  get "unlink" (fs.Fs.unlink root "mailX");
  expect_err Errno.ENOENT "tombstoned" (lookup "mailX");
  Alcotest.(check int) "after tombstone" long.Attr.ino (ino "mailXX");
  Alcotest.(check int) "neighbour kept" y.Attr.ino (ino "mailY");
  let again = mkfile fs root "mailX" in
  Alcotest.(check int) "recreated" again.Attr.ino (ino "mailX")

(* A new record goes to the first exact-size tombstone in block order, and
   the record a rename removes (its source, or the target it replaces)
   counts as one; a name of another length appends.  [readdir] lists in
   block order, so it shows where each record went. *)
let test_extfs_slot_reuse () =
  let fs = make_extfs () in
  let root = fs.Fs.root_ino in
  let listing dir = List.map (fun e -> e.Fs.name) (get "readdir" (fs.Fs.readdir dir)) in
  let check what expected dir = Alcotest.(check (list string)) what expected (listing dir) in
  List.iter (fun n -> ignore (mkfile fs root n)) [ "aa1"; "bb1"; "cc1"; "dd1" ];
  get "unlink" (fs.Fs.unlink root "bb1");
  get "unlink" (fs.Fs.unlink root "dd1");
  ignore (mkfile fs root "ee1");
  check "create takes the first tombstone" [ "aa1"; "ee1"; "cc1" ] root;
  get "rename" (fs.Fs.rename root "cc1" root "ff1");
  check "rename takes its own record before a later tombstone" [ "aa1"; "ee1"; "ff1" ] root;
  get "unlink" (fs.Fs.unlink root "aa1");
  get "rename" (fs.Fs.rename root "ff1" root "gg1");
  check "an earlier tombstone beats its own record" [ "gg1"; "ee1" ] root;
  ignore (mkfile fs root "zz1");
  get "rename" (fs.Fs.rename root "zz1" root "gg1");
  check "the replaced target's record counts" [ "gg1"; "ee1" ] root;
  ignore (mkfile fs root "hhhh");
  check "another length appends" [ "gg1"; "ee1"; "hhhh" ] root;
  get "unlink" (fs.Fs.unlink root "gg1");
  get "rename" (fs.Fs.rename root "ee1" root "ee1");
  check "onto itself, too, takes an earlier tombstone" [ "ee1"; "hhhh" ] root;
  (* Block order: 250 records of 46 bytes span three 4 KiB blocks; a
     tombstone in the first beats one in the third. *)
  let d = (mkdir fs root "big").Attr.ino in
  let name i = Printf.sprintf "%040d" i in
  for i = 0 to 249 do
    ignore (mkfile fs d (name i))
  done;
  get "unlink late" (fs.Fs.unlink d (name 240));
  get "unlink early" (fs.Fs.unlink d (name 10));
  ignore (mkfile fs d (String.make 40 'n'));
  Alcotest.(check string) "the first block's tombstone" (String.make 40 'n')
    (List.nth (listing d) 10);
  get "rename" (fs.Fs.rename d (name 245) d (String.make 40 'm'));
  Alcotest.(check string) "then the third block's, before the source's own" (String.make 40 'm')
    (List.nth (listing d) 240);
  Alcotest.(check int) "every other record stays" 249 (List.length (listing d))

let test_extfs_inode_reuse () =
  let fs = make_extfs () in
  let a = mkfile fs fs.Fs.root_ino "first" in
  get "unlink" (fs.Fs.unlink fs.Fs.root_ino "first");
  let b = mkfile fs fs.Fs.root_ino "second" in
  Alcotest.(check int) "ino reused" a.Attr.ino b.Attr.ino

(* --- pseudofs specifics --- *)

let test_pseudofs_dynamic_content () =
  let p = Pseudofs.create () in
  let counter = ref 0 in
  get "add dir" (Pseudofs.add_dir p "/sys");
  get "add file"
    (Pseudofs.add_file p "/sys/count" ~content:(fun () ->
         incr counter;
         string_of_int !counter));
  let fs = Pseudofs.fs p in
  let dir = get "lookup sys" (fs.Fs.lookup fs.Fs.root_ino "sys") in
  let file = get "lookup count" (fs.Fs.lookup dir.Attr.ino "count") in
  let read () = get "read" (fs.Fs.read file.Attr.ino ~off:0 ~len:10) in
  let first = read () in
  let second = read () in
  Alcotest.(check bool) "content regenerated" true (first <> second)

let test_pseudofs_immutable_via_fs () =
  let p = Pseudofs.create () in
  let fs = Pseudofs.fs p in
  expect_err Errno.EPERM "create"
    (fs.Fs.create fs.Fs.root_ino "x" File_kind.Regular 0o644 ~uid:0 ~gid:0);
  expect_err Errno.EPERM "unlink" (fs.Fs.unlink fs.Fs.root_ino "x");
  Alcotest.(check bool) "no negative caching" false fs.Fs.negative_dentries

let test_pseudofs_remove () =
  let p = Pseudofs.create () in
  get "add" (Pseudofs.add_file p "/gone" ~content:(fun () -> ""));
  let fs = Pseudofs.fs p in
  ignore (get "present" (fs.Fs.lookup fs.Fs.root_ino "gone"));
  get "remove" (Pseudofs.remove p "/gone");
  expect_err Errno.ENOENT "absent" (fs.Fs.lookup fs.Fs.root_ino "gone")

let suite =
  common_tests "ramfs" (fun () -> Ramfs.create ())
  @ common_tests "extfs" make_extfs
  @ [
      Alcotest.test_case "extfs remount persistence" `Quick test_extfs_remount_persistence;
      Alcotest.test_case "extfs bad superblock" `Quick test_extfs_bad_superblock;
      Alcotest.test_case "extfs many dirents + tombstones" `Quick test_extfs_many_entries_in_dir;
      Alcotest.test_case "extfs inode reuse" `Quick test_extfs_inode_reuse;
      Alcotest.test_case "extfs dirent search compares names in place" `Quick
        test_extfs_find_entry_in_place;
      Alcotest.test_case "extfs reuses the first exact-size slot in block order" `Quick
        test_extfs_slot_reuse;
      Alcotest.test_case "pseudofs dynamic content" `Quick test_pseudofs_dynamic_content;
      Alcotest.test_case "pseudofs immutable via fs" `Quick test_pseudofs_immutable_via_fs;
      Alcotest.test_case "pseudofs remove" `Quick test_pseudofs_remove;
    ]

(* --- fsck --- *)

module Fsck = Dcache_fs.Extfs_fsck
module Prng = Dcache_util.Prng

let fsck_clean what cache =
  match Fsck.check cache with
  | Error e -> Alcotest.failf "%s: fsck failed to run: %s" what (Errno.to_string e)
  | Ok report ->
    (match Fsck.errors report with
    | [] -> report
    | issues ->
      List.iter (fun i -> Printf.printf "fsck: %s\n" i.Fsck.message) issues;
      Alcotest.failf "%s: fsck found %d errors" what (List.length issues))

let test_fsck_clean_fresh () =
  let cache = fresh_extfs_cache () in
  let fs = Extfs.mkfs_and_mount cache in
  fs.Fs.sync ();
  let report = fsck_clean "fresh volume" cache in
  Alcotest.(check int) "only the root" 1 report.Fsck.inodes_used;
  Alcotest.(check int) "one directory" 1 report.Fsck.directories

let test_fsck_after_tree () =
  let cache = fresh_extfs_cache () in
  let fs = Extfs.mkfs_and_mount cache in
  let d = mkdir fs fs.Fs.root_ino "d" in
  let sub = mkdir fs d.Attr.ino "sub" in
  let f = mkfile fs sub.Attr.ino "file" in
  ignore (get "w" (fs.Fs.write f.Attr.ino ~off:0 (String.make 9000 'z')));
  ignore (get "ln" (fs.Fs.link sub.Attr.ino "file2" f.Attr.ino));
  ignore (get "sym" (fs.Fs.symlink fs.Fs.root_ino "s" ~target:"d/sub/file" ~uid:0 ~gid:0));
  fs.Fs.sync ();
  let report = fsck_clean "small tree" cache in
  Alcotest.(check int) "dirs" 3 report.Fsck.directories;
  Alcotest.(check int) "symlinks" 1 report.Fsck.symlinks

let test_fsck_detects_corruption () =
  let cache = fresh_extfs_cache () in
  let fs = Extfs.mkfs_and_mount cache in
  ignore (mkfile fs fs.Fs.root_ino "victim");
  fs.Fs.sync ();
  ignore (fsck_clean "before corruption" cache);
  (* Flip the victim's inode bitmap bit (inode 2 -> bit 1 of block 1). *)
  Dcache_storage.Pagecache.with_page_mut cache 1 (fun b ->
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land lnot 0b10)));
  (match Fsck.check cache with
  | Ok report -> Alcotest.(check bool) "corruption detected" true (Fsck.errors report <> [])
  | Error e -> Alcotest.failf "fsck: %s" (Errno.to_string e))

let fsck_random_ops =
  QCheck.Test.make ~name:"extfs stays fsck-clean under random operations" ~count:30
    QCheck.(pair small_int (list (pair (int_bound 5) (int_bound 3))))
    (fun (seed, script) ->
      let cache = fresh_extfs_cache () in
      let fs = Extfs.mkfs_and_mount cache in
      let prng = Prng.create (seed + 1) in
      (* Track a pool of live (ino, is_dir) pairs rooted at the root. *)
      let dirs = ref [ fs.Fs.root_ino ] in
      let files = ref [] in
      let name () = Prng.string prng ~min_len:1 ~max_len:12 in
      List.iter
        (fun (op, _) ->
          match op with
          | 0 -> (
            match fs.Fs.create (Prng.choice_list prng !dirs) (name ())
                    File_kind.Regular 0o644 ~uid:0 ~gid:0 with
            | Ok attr -> files := (Prng.choice_list prng !dirs, attr.Attr.ino) :: !files
            | Error _ -> ())
          | 1 -> (
            match fs.Fs.create (Prng.choice_list prng !dirs) (name ())
                    File_kind.Directory 0o755 ~uid:0 ~gid:0 with
            | Ok attr -> dirs := attr.Attr.ino :: !dirs
            | Error _ -> ())
          | 2 -> (
            (* unlink a random entry of a random dir *)
            let dir = Prng.choice_list prng !dirs in
            match fs.Fs.readdir dir with
            | Ok (entry :: _) when not (File_kind.equal entry.Fs.kind File_kind.Directory) ->
              ignore (fs.Fs.unlink dir entry.Fs.name)
            | _ -> ())
          | 3 -> (
            let dir = Prng.choice_list prng !dirs in
            match fs.Fs.readdir dir with
            | Ok (entry :: _) when File_kind.equal entry.Fs.kind File_kind.Directory -> (
              match fs.Fs.rmdir dir entry.Fs.name with
              | Ok () -> dirs := List.filter (fun i -> i <> entry.Fs.ino) !dirs
              | Error _ -> ())
            | _ -> ())
          | 4 -> (
            (* write some data to a random file *)
            match !files with
            | [] -> ()
            | _ ->
              let _, ino = Prng.choice_list prng !files in
              ignore (fs.Fs.write ino ~off:(Prng.int prng 20000) (String.make (Prng.int_in prng 1 5000) 'r')))
          | _ -> (
            (* rename between random dirs; directory cycle prevention is the
               VFS's contract, so only move non-directories here *)
            let src = Prng.choice_list prng !dirs in
            let dst = Prng.choice_list prng !dirs in
            match fs.Fs.readdir src with
            | Ok entries -> (
              match
                List.find_opt
                  (fun (e : Fs.dirent) ->
                    not (File_kind.equal e.Fs.kind File_kind.Directory))
                  entries
              with
              | Some entry -> ignore (fs.Fs.rename src entry.Fs.name dst (name ()))
              | None -> ())
            | Error _ -> ()))
        script;
      fs.Fs.sync ();
      match Fsck.check cache with
      | Error _ -> false
      | Ok report ->
        (match Fsck.errors report with
        | [] -> true
        | issues ->
          List.iter (fun i -> Printf.printf "fsck: %s\n" i.Fsck.message) issues;
          false))

(* --- ramfs/extfs observational equivalence at the fs interface --- *)

let fs_equivalence =
  QCheck.Test.make ~name:"ramfs and extfs agree on random fs-level scripts" ~count:50
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 40) (pair (int_bound 6) small_nat)))
    (fun (seed, script) ->
      let run fs =
        let prng = Prng.create (seed + 7) in
        let log = Buffer.create 256 in
        let note tag result =
          Buffer.add_string log tag;
          Buffer.add_string log
            (match result with
            | Ok () -> ":ok;"
            | Error e -> ":" ^ Errno.to_string e ^ ";")
        in
        (* All scripts address inodes through a name pool under the root so
           both file systems see identical requests. *)
        let names = [| "n0"; "n1"; "n2"; "n3" |] in
        let pick () = names.(Prng.int prng (Array.length names)) in
        let lookup name = fs.Fs.lookup fs.Fs.root_ino name in
        List.iter
          (fun (op, _) ->
            match op with
            | 0 ->
              note "create"
                (Result.map (fun _ -> ())
                   (fs.Fs.create fs.Fs.root_ino (pick ()) File_kind.Regular 0o644 ~uid:0 ~gid:0))
            | 1 ->
              note "mkdir"
                (Result.map (fun _ -> ())
                   (fs.Fs.create fs.Fs.root_ino (pick ()) File_kind.Directory 0o755 ~uid:0 ~gid:0))
            | 2 -> note "unlink" (fs.Fs.unlink fs.Fs.root_ino (pick ()))
            | 3 -> note "rmdir" (fs.Fs.rmdir fs.Fs.root_ino (pick ()))
            | 4 -> note "rename" (fs.Fs.rename fs.Fs.root_ino (pick ()) fs.Fs.root_ino (pick ()))
            | 5 -> (
              match lookup (pick ()) with
              | Ok attr ->
                Buffer.add_string log
                  (Printf.sprintf "lookup:ok(%c,%d);" (File_kind.to_char attr.Attr.kind)
                     attr.Attr.nlink)
              | Error e -> note "lookup" (Error e))
            | _ -> (
              match fs.Fs.readdir fs.Fs.root_ino with
              | Ok entries ->
                let names =
                  entries |> List.map (fun e -> e.Fs.name) |> List.sort compare
                  |> String.concat ","
                in
                Buffer.add_string log ("readdir:[" ^ names ^ "];")
              | Error e -> note "readdir" (Error e)))
          script;
        Buffer.contents log
      in
      let ram_log = run (Ramfs.create ()) in
      let ext_log = run (make_extfs ()) in
      if ram_log <> ext_log then
        QCheck.Test.fail_reportf "diverged:\nramfs: %s\nextfs: %s" ram_log ext_log;
      true)

(* The same agreement with names that reach the word compare and
   directories that span blocks: names of 1-40 bytes that share their first
   eight and differ in the last byte or elsewhere in the last word, two
   directories of 300 or more entries, renames within and across them onto
   absent names, files, empty directories and themselves.  Extfs must also
   stay fsck-clean. *)
let long_names =
  let base = "Maildir:0123456789abcdefghijklmnopqrstu" in
  List.concat_map
    (fun len ->
      let stem = String.sub base 0 (len - 1) in
      let word_byte =
        (* a byte of the last word other than the last, when there is one *)
        String.mapi (fun i c -> if i = len - 3 then '~' else c) (stem ^ "x")
      in
      (stem ^ "x") :: (stem ^ "y") :: (if len >= 3 then [ word_byte ] else []))
    [ 1; 2; 7; 8; 9; 15; 16; 17; 23; 24; 25; 32; 33; 39; 40 ]
  |> Array.of_list

let fs_equivalence_long_names =
  QCheck.Test.make ~name:"ramfs and extfs agree on long names across two big directories"
    ~count:20
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 20 120) (int_bound 7)))
    (fun (seed, script) ->
      let run fs =
        let prng = Prng.create (seed + 11) in
        let log = Buffer.create 1024 in
        let note tag result =
          Buffer.add_string log tag;
          Buffer.add_string log
            (match result with Ok () -> ":ok;" | Error e -> ":" ^ Errno.to_string e ^ ";")
        in
        let unit r = Result.map (fun _ -> ()) r in
        let dir name =
          (get "mkdir" (fs.Fs.create fs.Fs.root_ino name File_kind.Directory 0o755 ~uid:0 ~gid:0))
            .Attr.ino
        in
        let dirs = [| dir "a"; dir "b" |] in
        (* 320 fillers in each, every third unlinked: four blocks with
           tombstones of the fillers' size between the live records. *)
        Array.iter
          (fun d ->
            for i = 0 to 319 do
              ignore (mkfile fs d (Printf.sprintf "filler-%04d-%s" i (String.make (i mod 29) 'f')))
            done;
            for i = 0 to 319 do
              if i mod 3 = 0 then
                get "unlink filler"
                  (fs.Fs.unlink d (Printf.sprintf "filler-%04d-%s" i (String.make (i mod 29) 'f')))
            done)
          dirs;
        let pick_dir () = dirs.(Prng.int prng 2) in
        let pick () = long_names.(Prng.int prng (Array.length long_names)) in
        (* A name [d] holds, so that most renames have a source. *)
        let pick_live d =
          match fs.Fs.readdir d with
          | Ok entries -> (
            match
              entries
              |> List.map (fun e -> e.Fs.name)
              |> List.filter (fun n -> not (String.starts_with ~prefix:"filler-" n))
              |> List.sort compare
            with
            | [] -> pick ()
            | live -> List.nth live (Prng.int prng (List.length live)))
          | Error _ -> pick ()
        in
        let listing d =
          match fs.Fs.readdir d with
          | Ok entries ->
            entries |> List.map (fun e -> e.Fs.name) |> List.sort compare |> String.concat ","
          | Error e -> Errno.to_string e
        in
        List.iter
          (fun op ->
            match op with
            | 0 | 1 ->
              note "create"
                (unit (fs.Fs.create (pick_dir ()) (pick ()) File_kind.Regular 0o644 ~uid:0 ~gid:0))
            | 2 ->
              note "mkdir"
                (unit (fs.Fs.create (pick_dir ()) (pick ()) File_kind.Directory 0o755 ~uid:0 ~gid:0))
            | 3 -> note "unlink" (fs.Fs.unlink (pick_dir ()) (pick ()))
            | 4 -> note "rmdir" (fs.Fs.rmdir (pick_dir ()) (pick ()))
            | 5 ->
              let d = pick_dir () in
              let name = pick_live d in
              note "rename-self" (fs.Fs.rename d name d name)
            | 6 ->
              let d = pick_dir () in
              let name = pick_live d in
              note "rename" (fs.Fs.rename d name (pick_dir ()) (pick ()))
            | _ -> (
              match fs.Fs.lookup (pick_dir ()) (pick ()) with
              | Ok attr ->
                Buffer.add_string log
                  (Printf.sprintf "lookup:ok(%c,%d);" (File_kind.to_char attr.Attr.kind)
                     attr.Attr.nlink)
              | Error e -> note "lookup" (Error e)))
          script;
        Array.iter
          (fun d ->
            Buffer.add_string log
              (Printf.sprintf "[%d:%s]" (get "getattr" (fs.Fs.getattr d)).Attr.nlink (listing d)))
          dirs;
        Buffer.contents log
      in
      let ram_log = run (Ramfs.create ()) in
      let cache = fresh_extfs_cache () in
      let fs = Extfs.mkfs_and_mount cache in
      let ext_log = run fs in
      fs.Fs.sync ();
      ignore (fsck_clean "after the script" cache);
      if ram_log <> ext_log then
        QCheck.Test.fail_reportf "diverged:\nramfs: %s\nextfs: %s" ram_log ext_log;
      true)

let fsck_suite =
  [
    Alcotest.test_case "fsck: fresh volume" `Quick test_fsck_clean_fresh;
    Alcotest.test_case "fsck: after building a tree" `Quick test_fsck_after_tree;
    Alcotest.test_case "fsck: detects bitmap corruption" `Quick test_fsck_detects_corruption;
    QCheck_alcotest.to_alcotest fsck_random_ops;
    QCheck_alcotest.to_alcotest fs_equivalence;
    QCheck_alcotest.to_alcotest fs_equivalence_long_names;
  ]

(* VFS semantics: permissions, symlinks, dot-dot, mounts, namespaces,
   negative dentries, directory references.  Every test runs on both the
   baseline and the optimized kernel — the optimizations must be invisible
   at the API. *)

open Dcache_types
open Kit
module Mode = Dcache_types.Mode

let setup config =
  let kernel, root_proc = ram_kernel ~config () in
  get "mkdir" (S.mkdir_p root_proc "/home/alice/docs");
  get "write" (S.write_file root_proc "/home/alice/docs/file.txt" "contents");
  get "chown /home/alice" (S.chown root_proc "/home/alice" ~uid:1000 ~gid:1000);
  get "chown docs" (S.chown root_proc "/home/alice/docs" ~uid:1000 ~gid:1000);
  get "chown file" (S.chown root_proc "/home/alice/docs/file.txt" ~uid:1000 ~gid:1000);
  (kernel, root_proc)

let suite =
  tc_both "stat resolves nested path" (fun config ->
      let _, p = setup config in
      let attr = get "stat" (S.stat p "/home/alice/docs/file.txt") in
      Alcotest.(check int) "size" 8 attr.Attr.size;
      Alcotest.(check bool) "kind" true (File_kind.equal attr.Attr.kind File_kind.Regular))
  @ tc_both "path variations canonicalize" (fun config ->
        let _, p = setup config in
        let ino path = (get path (S.stat p path)).Attr.ino in
        let base = ino "/home/alice/docs/file.txt" in
        Alcotest.(check int) "dot" base (ino "/home/./alice/docs/file.txt");
        Alcotest.(check int) "double slash" base (ino "//home//alice//docs//file.txt");
        Alcotest.(check int) "dotdot" base (ino "/home/alice/../alice/docs/file.txt"))
  @ tc_both "trailing slash requires a directory" (fun config ->
        let _, p = setup config in
        ignore (get "dir ok" (S.stat p "/home/alice/docs/"));
        expect_err Errno.ENOTDIR "file with slash" (S.stat p "/home/alice/docs/file.txt/"))
  @ tc_both "intermediate file is ENOTDIR" (fun config ->
        let _, p = setup config in
        expect_err Errno.ENOTDIR "under file" (S.stat p "/home/alice/docs/file.txt/deeper");
        expect_err Errno.ENOTDIR "repeat (cached)" (S.stat p "/home/alice/docs/file.txt/deeper"))
  @ tc_both "missing intermediate is ENOENT" (fun config ->
        let _, p = setup config in
        expect_err Errno.ENOENT "missing mid" (S.stat p "/home/ghost/docs/file.txt");
        expect_err Errno.ENOENT "repeat (cached)" (S.stat p "/home/ghost/docs/file.txt"))
  @ tc_both "search permission enforced per component" (fun config ->
        let kernel, root_p = setup config in
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        let bob_p = Proc.spawn ~cred:(bob ()) kernel in
        ignore (get "alice reads" (S.stat alice_p "/home/alice/docs/file.txt"));
        get "lock down" (S.chmod root_p "/home/alice" 0o700);
        ignore (get "alice still owner" (S.stat alice_p "/home/alice/docs/file.txt"));
        expect_err Errno.EACCES "bob blocked" (S.stat bob_p "/home/alice/docs/file.txt");
        expect_err Errno.EACCES "bob blocked again" (S.stat bob_p "/home/alice/docs/file.txt");
        ignore kernel)
  @ tc_both "chmod invalidates cached permission" (fun config ->
        let kernel, root_p = setup config in
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        (* Warm alice's caches, then revoke and verify the change bites. *)
        ignore (get "warm" (S.stat alice_p "/home/alice/docs/file.txt"));
        ignore (get "warm2" (S.stat alice_p "/home/alice/docs/file.txt"));
        get "revoke" (S.chmod root_p "/home/alice/docs" 0o000);
        expect_err Errno.EACCES "revoked" (S.stat alice_p "/home/alice/docs/file.txt");
        get "restore" (S.chmod root_p "/home/alice/docs" 0o755);
        ignore (get "restored" (S.stat alice_p "/home/alice/docs/file.txt")))
  @ tc_both "chown invalidates cached permission" (fun config ->
        let kernel, root_p = setup config in
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        get "make private" (S.chmod root_p "/home/alice/docs" 0o700);
        ignore (get "owner ok" (S.stat alice_p "/home/alice/docs/file.txt"));
        get "steal" (S.chown root_p "/home/alice/docs" ~uid:0 ~gid:0);
        expect_err Errno.EACCES "no longer owner" (S.stat alice_p "/home/alice/docs/file.txt"))
  @ tc_both "negative dentries answer repeats" (fun config ->
        let kernel, p = setup config in
        expect_err Errno.ENOENT "first" (S.stat p "/home/alice/docs/nope");
        let misses_before = counter kernel "dcache_miss" in
        expect_err Errno.ENOENT "second" (S.stat p "/home/alice/docs/nope");
        Alcotest.(check int) "no new fs miss" misses_before (counter kernel "dcache_miss"))
  @ tc_both "file creation kills the negative dentry" (fun config ->
        let _, p = setup config in
        expect_err Errno.ENOENT "miss" (S.stat p "/home/alice/newfile");
        get "create" (S.write_file p "/home/alice/newfile" "x");
        let attr = get "now exists" (S.stat p "/home/alice/newfile") in
        Alcotest.(check int) "size" 1 attr.Attr.size)
  @ tc_both "symlinks resolve and lstat does not follow" (fun config ->
        let _, p = setup config in
        get "ln" (S.symlink p ~target:"/home/alice/docs" "/dlink");
        let through = get "through" (S.stat p "/dlink/file.txt") in
        let direct = get "direct" (S.stat p "/home/alice/docs/file.txt") in
        Alcotest.(check int) "same inode" direct.Attr.ino through.Attr.ino;
        let l = get "lstat" (S.lstat p "/dlink") in
        Alcotest.(check bool) "lstat sees link" true
          (File_kind.equal l.Attr.kind File_kind.Symlink);
        let followed = get "stat link" (S.stat p "/dlink") in
        Alcotest.(check bool) "stat follows" true
          (File_kind.equal followed.Attr.kind File_kind.Directory))
  @ tc_both "relative symlink targets" (fun config ->
        let _, p = setup config in
        get "ln" (S.symlink p ~target:"docs/file.txt" "/home/alice/shortcut");
        let a = get "via shortcut" (S.stat p "/home/alice/shortcut") in
        Alcotest.(check int) "size" 8 a.Attr.size)
  @ tc_both "symlink loops are ELOOP" (fun config ->
        let _, p = setup config in
        get "a->b" (S.symlink p ~target:"/loopb" "/loopa");
        get "b->a" (S.symlink p ~target:"/loopa" "/loopb");
        expect_err Errno.ELOOP "loop" (S.stat p "/loopa/whatever");
        expect_err Errno.ELOOP "trailing loop" (S.stat p "/loopa"))
  @ tc_both "dangling symlink is ENOENT but lstat works" (fun config ->
        let _, p = setup config in
        get "ln" (S.symlink p ~target:"/nowhere/at/all" "/dangle");
        expect_err Errno.ENOENT "follow" (S.stat p "/dangle");
        ignore (get "lstat" (S.lstat p "/dangle"));
        Alcotest.(check string) "readlink" "/nowhere/at/all" (get "rl" (S.readlink p "/dangle")))
  @ tc_both "dot-dot stops at root" (fun config ->
        let _, p = setup config in
        let root_ino = (get "root" (S.stat p "/")).Attr.ino in
        let esc = (get "escape" (S.stat p "/../../..")).Attr.ino in
        Alcotest.(check int) "clamped to root" root_ino esc)
  @ tc_both "chroot confines and blocks dot-dot escape" (fun config ->
        let kernel, p = setup config in
        get "jail" (S.mkdir_p p "/jail/inner");
        get "file" (S.write_file p "/jail/inner/f" "jailed");
        let jailed = Proc.fork p in
        get "chroot" (S.chroot jailed "/jail");
        let attr = get "stat inside" (S.stat jailed "/inner/f") in
        Alcotest.(check int) "size" 6 attr.Attr.size;
        expect_err Errno.ENOENT "outside invisible" (S.stat jailed "/home/alice/docs/file.txt");
        let jail_root = (get "root" (S.stat jailed "/")).Attr.ino in
        Alcotest.(check int) "dotdot clamped"
          jail_root
          (get "escape" (S.stat jailed "/inner/../..")).Attr.ino;
        ignore kernel)
  @ tc_both "directory references survive ancestor revocation" (fun config ->
        (* cd into a directory, then remove search permission on the parent:
           relative access keeps working, absolute re-resolution fails. *)
        let kernel, root_p = setup config in
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        get "cd" (S.chdir alice_p "/home/alice/docs");
        ignore (get "warm" (S.stat alice_p "file.txt"));
        get "revoke" (S.chmod root_p "/home/alice" 0o000);
        ignore (get "relative still works" (S.stat alice_p "file.txt"));
        expect_err Errno.EACCES "absolute blocked"
          (S.stat alice_p "/home/alice/docs/file.txt"))
  @ tc_both "mount eclipses and umount restores" (fun config ->
        let kernel, p = setup config in
        get "mnt" (S.mkdir_p p "/mnt/data");
        get "marker" (S.write_file p "/mnt/data/under" "below");
        let other = Dcache_fs.Ramfs.create () in
        get "mount" (S.mount_fs p other "/mnt/data");
        expect_err Errno.ENOENT "eclipsed" (S.stat p "/mnt/data/under");
        get "new file" (S.write_file p "/mnt/data/above" "on top");
        ignore (get "visible" (S.stat p "/mnt/data/above"));
        get "umount" (S.umount p "/mnt/data");
        ignore (get "restored" (S.stat p "/mnt/data/under"));
        expect_err Errno.ENOENT "overlay gone" (S.stat p "/mnt/data/above");
        ignore kernel)
  @ tc_both "read-only mounts refuse writes" (fun config ->
        let _, p = setup config in
        get "mnt" (S.mkdir_p p "/mnt/ro");
        let other = Dcache_fs.Ramfs.create () in
        get "mount ro" (S.mount_fs ~readonly:true p other "/mnt/ro");
        expect_err Errno.EROFS "create" (S.write_file p "/mnt/ro/f" "x");
        expect_err Errno.EROFS "mkdir" (S.mkdir p "/mnt/ro/d"))
  @ tc_both "umount busy with nested mount" (fun config ->
        let _, p = setup config in
        get "a" (S.mkdir_p p "/m/a");
        let fs1 = Dcache_fs.Ramfs.create () in
        get "mount outer" (S.mount_fs p fs1 "/m/a");
        get "inner dir" (S.mkdir_p p "/m/a/b");
        let fs2 = Dcache_fs.Ramfs.create () in
        get "mount inner" (S.mount_fs p fs2 "/m/a/b");
        expect_err Errno.EBUSY "outer busy" (S.umount p "/m/a");
        get "umount inner" (S.umount p "/m/a/b");
        get "umount outer" (S.umount p "/m/a"))
  @ tc_both "bind mounts alias the same files" (fun config ->
        let _, p = setup config in
        get "dst" (S.mkdir_p p "/bindpoint");
        get "bind" (S.bind_mount p ~src:"/home/alice/docs" ~dst:"/bindpoint");
        let a = get "via bind" (S.stat p "/bindpoint/file.txt") in
        let b = get "direct" (S.stat p "/home/alice/docs/file.txt") in
        Alcotest.(check int) "same ino" b.Attr.ino a.Attr.ino;
        (* Writes through one alias are visible through the other. *)
        get "write via bind" (S.write_file p "/bindpoint/both.txt" "shared!");
        Alcotest.(check string) "read via original" "shared!"
          (get "read" (S.read_file p "/home/alice/docs/both.txt")))
  @ tc_both "mount namespaces isolate mounts" (fun config ->
        let kernel, p = setup config in
        get "mnt" (S.mkdir_p p "/private");
        let child = Proc.fork p in
        get "unshare" (S.unshare_mount_ns child);
        let fs = Dcache_fs.Ramfs.create () in
        get "mount in child ns" (S.mount_fs child fs "/private");
        get "child writes" (S.write_file child "/private/secret" "ns-private");
        (* The parent namespace must not see the mount. *)
        expect_err Errno.ENOENT "parent blind" (S.stat p "/private/secret");
        ignore (get "child sees" (S.stat child "/private/secret"));
        ignore kernel)
  @ tc_both "rename directory updates paths" (fun config ->
        let _, p = setup config in
        get "mk" (S.mkdir_p p "/top/inner");
        get "f" (S.write_file p "/top/inner/f" "move me");
        get "rename" (S.rename p "/top/inner" "/top/renamed");
        expect_err Errno.ENOENT "old path" (S.stat p "/top/inner/f");
        Alcotest.(check string) "new path content" "move me"
          (get "read" (S.read_file p "/top/renamed/f")))
  @ tc_both "rename into own subtree is EINVAL" (fun config ->
        let _, p = setup config in
        get "mk" (S.mkdir_p p "/r/a/b");
        expect_err Errno.EINVAL "cycle" (S.rename p "/r/a" "/r/a/b/c"))
  @ tc_both "rename onto the same path is a no-op" (fun config ->
        (* regression: this used to leak a hash-table entry by unhashing and
           re-inserting the same dentry *)
        let kernel, p = ram_kernel ~config () in
        get "f" (S.write_file p "/samefile" "keep");
        get "warm" (S.chdir p "/");
        get "rename" (S.rename p "samefile" "/samefile");
        Alcotest.(check string) "intact" "keep" (get "read" (S.read_file p "/samefile"));
        Alcotest.(check (list string)) "dcache invariants hold" []
          (Dcache_vfs.Dcache.self_check (Kernel.dcache kernel)))
  @ tc_both "rename onto hard link of itself is a no-op" (fun config ->
        let _, p = setup config in
        get "f" (S.write_file p "/one" "same");
        get "link" (S.link p "/one" "/two");
        get "rename" (S.rename p "/one" "/two");
        (* POSIX: both names remain *)
        ignore (get "one" (S.stat p "/one"));
        ignore (get "two" (S.stat p "/two")))
  @ tc_both "hard links share inode through VFS" (fun config ->
        let _, p = setup config in
        get "f" (S.write_file p "/orig" "data");
        get "ln" (S.link p "/orig" "/alias");
        let a = get "a" (S.stat p "/orig") in
        let b = get "b" (S.stat p "/alias") in
        Alcotest.(check int) "ino" a.Attr.ino b.Attr.ino;
        Alcotest.(check int) "nlink" 2 b.Attr.nlink;
        get "unlink orig" (S.unlink p "/orig");
        Alcotest.(check string) "alias still reads" "data" (get "read" (S.read_file p "/alias")))
  @ tc_both "unlinked but open file keeps working" (fun config ->
        let _, p = setup config in
        get "f" (S.write_file p "/tmpfile" "still here");
        let fd = get "open" (S.openf p "/tmpfile" [ Proc.O_RDONLY ]) in
        get "unlink" (S.unlink p "/tmpfile");
        expect_err Errno.ENOENT "path gone" (S.stat p "/tmpfile");
        Alcotest.(check string) "fd reads" "still here"
          (get "pread" (S.pread p fd ~off:0 ~len:100));
        get "close" (S.close p fd))
  @ tc_both "recycled inode numbers do not resurrect stale inodes" (fun config ->
        (* extfs reuses freed inode slots; the VFS inode cache must not hand
           back the dead directory's attributes for a new file. *)
        let clock = Dcache_util.Vclock.create () in
        let device = Dcache_storage.Blockdev.create clock in
        let cache = Dcache_storage.Pagecache.create device in
        let fs = Dcache_fs.Extfs.mkfs_and_mount cache in
        let kernel = Kernel.create ~config ~root_fs:fs () in
        let p = Proc.spawn kernel in
        get "dir" (S.mkdir_p p "/olddir/sub");
        ignore (get "warm" (S.stat p "/olddir/sub"));
        get "rm sub" (S.rmdir p "/olddir/sub");
        get "rm" (S.rmdir p "/olddir");
        get "newfile" (S.write_file p "/newfile" "fresh");
        let attr = get "stat" (S.stat p "/newfile") in
        Alcotest.(check bool) "a regular file, not a zombie directory" true
          (File_kind.equal attr.Attr.kind File_kind.Regular);
        Alcotest.(check string) "content" "fresh" (get "read" (S.read_file p "/newfile")))
  @ tc_both "pseudo fs mounts and reads" (fun config ->
        let _, p = setup config in
        let pseudo = Dcache_fs.Pseudofs.create () in
        get "meminfo"
          (Dcache_fs.Pseudofs.add_file pseudo "/meminfo" ~content:(fun () -> "MemTotal: 64G"));
        get "proc dir" (S.mkdir_p p "/proc");
        get "mount proc" (S.mount_fs p (Dcache_fs.Pseudofs.fs pseudo) "/proc");
        Alcotest.(check string) "read" "MemTotal: 64G" (get "read" (S.read_file p "/proc/meminfo"));
        expect_err Errno.ENOENT "missing proc entry" (S.stat p "/proc/nonexistent");
        expect_err Errno.ENOENT "missing again" (S.stat p "/proc/nonexistent"))

(* --- Path string handling --- *)

module Path = Dcache_vfs.Path

(* The walks' in-place cursor against the list-building reference: the
   same components under Linux and lexical dot-dot semantics, the same
   is-last answer at each, the same ENOENT/ENAMETOOLONG verdict. *)
let gen_cursor_path =
  let open QCheck.Gen in
  let comp =
    frequency
      [
        (6, string_size ~gen:(char_range 'a' 'c') (int_range 1 3));
        (3, return ".");
        (4, return "..");
        (1, return "...");
        (2, return "");
        (1, return (String.make 255 'n'));
        (1, return (String.make 256 'n'));
      ]
  in
  frequency
    [
      (1, return "");
      (* 3,839, 4,095 and 4,351 bytes: around [max_path] *)
      (2, map (fun k -> String.concat "/" (List.init k (fun _ -> String.make 255 'n'))) (int_range 15 17));
      ( 30,
        map4
          (fun lead up comps trail ->
            (if lead then "/" else "")
            ^ (if up then "../" else "")
            ^ String.concat "/" comps
            ^ if trail then "/" else "")
          bool bool (list_size (int_range 0 24) comp) bool );
    ]

let cursor_components ~lexical path =
  let rec go pos acc =
    let sp = Path.next ~lexical path pos in
    if sp < 0 then List.rev acc
    else begin
      let c =
        if Path.is_dot path sp then Path.Cur
        else if Path.is_dotdot path sp then Path.Up
        else Path.Name (Path.name path sp)
      in
      let last = Path.next ~lexical path (Path.span_stop sp) < 0 in
      go (Path.span_stop sp) ((c, last) :: acc)
    end
  in
  go 0 []

let cursor_property =
  QCheck.Test.make ~name:"in-place cursor == Path.split (+ lexical_normalize)" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_cursor_path)
    (fun path ->
      let show comps =
        String.concat "/"
          (List.map (function Path.Cur -> "." | Path.Up -> ".." | Path.Name n -> n) comps)
      in
      let same ~lexical expect =
        let what = if lexical then "lexical" else "linux" in
        let got = cursor_components ~lexical path in
        let lasts = List.mapi (fun i _ -> i = List.length expect - 1) expect in
        if List.map fst got <> expect then
          QCheck.Test.fail_reportf "%s: cursor %S, reference %S" what (show (List.map fst got))
            (show expect);
        if List.map snd got <> lasts then QCheck.Test.fail_reportf "%s: is-last answers differ" what
      in
      match (Path.split path, Path.check path ~pos:0) with
      | Error e, Error e' -> e = e' || QCheck.Test.fail_reportf "verdict %s, reference %s"
                                        (Errno.to_string e') (Errno.to_string e)
      | Ok comps, Ok () ->
        same ~lexical:false comps;
        same ~lexical:true (Path.lexical_normalize comps);
        (* A resumed walk checks the suffix after a component boundary. *)
        String.iteri
          (fun pos c ->
            let suffix = String.sub path pos (String.length path - pos) in
            if c = '/' && Result.is_ok (Path.split suffix) <> Result.is_ok (Path.check path ~pos)
            then QCheck.Test.fail_reportf "verdicts differ from byte %d" pos)
          path;
        true
      | Ok _, Error e -> QCheck.Test.fail_reportf "cursor rejects with %s" (Errno.to_string e)
      | Error e, Ok () -> QCheck.Test.fail_reportf "cursor accepts, reference %s" (Errno.to_string e))

let path_suite =
  [
    Alcotest.test_case "path split basics" `Quick (fun () ->
        let comps path =
          match Path.split path with
          | Ok comps ->
            List.map
              (function Path.Name n -> n | Path.Cur -> "." | Path.Up -> "..")
              comps
          | Error e -> [ "ERR:" ^ Errno.to_string e ]
        in
        Alcotest.(check (list string)) "plain" [ "a"; "b" ] (comps "/a/b");
        Alcotest.(check (list string)) "relative" [ "a"; "b" ] (comps "a/b");
        Alcotest.(check (list string)) "dup slashes" [ "a"; "b" ] (comps "//a///b//");
        Alcotest.(check (list string)) "dots kept" [ "."; "a"; ".." ] (comps "./a/..");
        Alcotest.(check (list string)) "root" [] (comps "/");
        Alcotest.(check (list string)) "empty is ENOENT" [ "ERR:ENOENT" ] (comps "");
        Alcotest.(check (list string)) "long name"
          [ "ERR:ENAMETOOLONG" ]
          (comps ("/" ^ String.make 300 'x'));
        Alcotest.(check (list string)) "long path"
          [ "ERR:ENAMETOOLONG" ]
          (comps (String.concat "/" (List.init 900 (fun _ -> "abcde")))))  ;
    Alcotest.test_case "lexical normalize" `Quick (fun () ->
        let norm path =
          match Path.split path with
          | Ok comps ->
            Path.lexical_normalize comps
            |> List.map (function Path.Name n -> n | Path.Cur -> "." | Path.Up -> "..")
          | Error _ -> [ "ERR" ]
        in
        Alcotest.(check (list string)) "a/b/../c" [ "a"; "c" ] (norm "a/b/../c");
        Alcotest.(check (list string)) "leading up kept" [ ".."; "x" ] (norm "../x");
        Alcotest.(check (list string)) "collapse all" [] (norm "a/b/../..");
        Alcotest.(check (list string)) "dots dropped" [ "a" ] (norm "./a/.");
        Alcotest.(check (list string)) "deep" [ "a"; "d" ] (norm "a/b/c/../../d"));
    Alcotest.test_case "join" `Quick (fun () ->
        Alcotest.(check string) "simple" "/a/b" (Path.join "/a" "b");
        Alcotest.(check string) "trailing slash" "/a/b" (Path.join "/a/" "b");
        Alcotest.(check string) "absolute wins" "/x" (Path.join "/a" "/x"));
    Alcotest.test_case "fs_overhead charges the virtual clock" `Quick (fun () ->
        let clock = Dcache_util.Vclock.create () in
        let fs =
          Dcache_fs.Fs_overhead.wrap ~clock
            ~costs:
              { Dcache_fs.Fs_overhead.lookup_ns = 100; getattr_ns = 10;
                readdir_base_ns = 50; readdir_entry_ns = 5; mutate_ns = 200;
                readlink_ns = 7 }
            (Dcache_fs.Ramfs.create ())
        in
        ignore (fs.Dcache_fs.Fs_intf.lookup fs.Dcache_fs.Fs_intf.root_ino "missing");
        Alcotest.(check int64) "lookup charged" 100L (Dcache_util.Vclock.elapsed_ns clock);
        ignore
          (fs.Dcache_fs.Fs_intf.create fs.Dcache_fs.Fs_intf.root_ino "a"
             File_kind.Regular 0o644 ~uid:0 ~gid:0);
        ignore
          (fs.Dcache_fs.Fs_intf.create fs.Dcache_fs.Fs_intf.root_ino "b"
             File_kind.Regular 0o644 ~uid:0 ~gid:0);
        ignore (fs.Dcache_fs.Fs_intf.readdir fs.Dcache_fs.Fs_intf.root_ino);
        (* 100 + 200 + 200 + 50 + 2*5 *)
        Alcotest.(check int64) "accumulated" 560L (Dcache_util.Vclock.elapsed_ns clock));
    QCheck_alcotest.to_alcotest cursor_property;
    Alcotest.test_case "lexical dot-dot: deep negatives follow the cancelled path" `Quick
      (fun () ->
        let config =
          { Config.optimized with Config.dotdot = Config.Dotdot_lexical; dir_completeness = false }
        in
        let kernel, p = ram_kernel ~config () in
        get "mkdir" (S.mkdir_p p "/d");
        expect_err Errno.ENOENT "stat" (S.stat p "/d/missing/x/../y");
        let dcache = Kernel.dcache kernel in
        let child parent name = Dcache_vfs.Dcache.lookup dcache parent name in
        let negative = function
          | Some d -> Dcache_vfs.Types.dentry_is_negative d
          | None -> false
        in
        let root = (Dcache_syscalls.Proc.walk_ctx p).Dcache_vfs.Walk.root.Dcache_vfs.Types.dentry in
        match Option.bind (child root "d") (fun d -> child d "missing") with
        | None -> Alcotest.fail "no dentry for /d/missing"
        | Some missing ->
          Alcotest.(check bool) "missing is negative" true (negative (Some missing));
          Alcotest.(check bool) "deep negative for missing/y" true (negative (child missing "y"));
          Alcotest.(check bool) "nothing for missing/x" true (child missing "x" = None));
  ]

(* Syscall-surface semantics: open flags, fd IO, directory streams,
   mkstemp, process state. *)

open Dcache_types
open Kit

let suite =
  tc_both "open O_CREAT/O_EXCL" (fun config ->
      let _, p = ram_kernel ~config () in
      let fd = get "creat" (S.openf p "/new" [ Proc.O_CREAT; Proc.O_WRONLY ]) in
      get "close" (S.close p fd);
      expect_err Errno.EEXIST "excl" (S.openf p "/new" [ Proc.O_CREAT; Proc.O_EXCL ]);
      let fd2 = get "reopen creat" (S.openf p "/new" [ Proc.O_CREAT; Proc.O_RDONLY ]) in
      get "close2" (S.close p fd2))
  @ tc_both "open O_TRUNC clears content" (fun config ->
        let _, p = ram_kernel ~config () in
        get "w" (S.write_file p "/f" "0123456789");
        let fd = get "trunc" (S.openf p "/f" [ Proc.O_WRONLY; Proc.O_TRUNC ]) in
        get "close" (S.close p fd);
        Alcotest.(check int) "empty" 0 (get "stat" (S.stat p "/f")).Attr.size)
  @ tc_both "O_APPEND writes at end" (fun config ->
        let _, p = ram_kernel ~config () in
        get "w" (S.write_file p "/log" "start-");
        let fd = get "open" (S.openf p "/log" [ Proc.O_WRONLY; Proc.O_APPEND ]) in
        ignore (get "append" (S.write p fd "more"));
        get "close" (S.close p fd);
        Alcotest.(check string) "appended" "start-more" (get "read" (S.read_file p "/log")))
  @ tc_both "read/write positions" (fun config ->
        let _, p = ram_kernel ~config () in
        let fd = get "open" (S.openf p "/f" [ Proc.O_CREAT; Proc.O_RDWR ]) in
        ignore (get "w1" (S.write p fd "abc"));
        ignore (get "w2" (S.write p fd "def"));
        ignore (get "seek" (S.lseek p fd 0));
        Alcotest.(check string) "sequential reads" "abcd" (get "r" (S.read p fd 4));
        Alcotest.(check string) "continues" "ef" (get "r2" (S.read p fd 10));
        Alcotest.(check string) "eof" "" (get "r3" (S.read p fd 10));
        Alcotest.(check string) "pread ignores pos" "cde" (get "pr" (S.pread p fd ~off:2 ~len:3));
        ignore (get "pw" (S.pwrite p fd ~off:1 "XY"));
        Alcotest.(check string) "pwrite applied" "aXYdef" (get "rf" (S.read_file p "/f"));
        get "close" (S.close p fd))
  @ tc_both "O_DIRECTORY and EISDIR" (fun config ->
        let _, p = ram_kernel ~config () in
        get "d" (S.mkdir_p p "/d");
        get "f" (S.write_file p "/f" "x");
        expect_err Errno.ENOTDIR "file as dir" (S.openf p "/f" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]);
        expect_err Errno.EISDIR "write dir" (S.openf p "/d" [ Proc.O_WRONLY ]);
        let fd = get "ok" (S.openf p "/d" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
        get "close" (S.close p fd))
  @ tc_both "O_NOFOLLOW on trailing symlink" (fun config ->
        let _, p = ram_kernel ~config () in
        get "f" (S.write_file p "/real" "x");
        get "l" (S.symlink p ~target:"/real" "/lnk");
        expect_err Errno.ELOOP "nofollow" (S.openf p "/lnk" [ Proc.O_RDONLY; Proc.O_NOFOLLOW ]);
        let fd = get "follow" (S.openf p "/lnk" [ Proc.O_RDONLY ]) in
        get "close" (S.close p fd))
  @ tc_both "bad fd is EBADF" (fun config ->
        let _, p = ram_kernel ~config () in
        expect_err Errno.EBADF "read" (S.read p 77 1);
        expect_err Errno.EBADF "close" (S.close p 77);
        get "f" (S.write_file p "/f" "x");
        let fd = get "open ro" (S.openf p "/f" [ Proc.O_RDONLY ]) in
        expect_err Errno.EBADF "write to ro fd" (S.write p fd "nope");
        get "close" (S.close p fd);
        expect_err Errno.EBADF "double close" (S.close p fd))
  @ tc_both "getdents chunks and rewind" (fun config ->
        let _, p = ram_kernel ~config () in
        get "d" (S.mkdir_p p "/d");
        for i = 0 to 9 do
          get "f" (S.write_file p (Printf.sprintf "/d/f%d" i) "x")
        done;
        let fd = get "open" (S.openf p "/d" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
        let c1 = get "chunk1" (S.getdents p fd 4) in
        let c2 = get "chunk2" (S.getdents p fd 4) in
        let c3 = get "chunk3" (S.getdents p fd 4) in
        let c4 = get "chunk4" (S.getdents p fd 4) in
        Alcotest.(check int) "4+4+2+0" 10 (List.length c1 + List.length c2 + List.length c3);
        Alcotest.(check int) "eof" 0 (List.length c4);
        ignore (get "rewind" (S.lseek p fd 0));
        let again = get "again" (S.getdents p fd 100) in
        Alcotest.(check int) "full after rewind" 10 (List.length again);
        get "close" (S.close p fd))
  @ tc_both "mkstemp creates unique files" (fun config ->
        let _, p = ram_kernel ~config () in
        get "tmp" (S.mkdir_p p "/tmp");
        let prng = Dcache_util.Prng.create 1 in
        let seen = Hashtbl.create 16 in
        for _ = 1 to 50 do
          let fd, path = get "mkstemp" (S.mkstemp ~prng p "/tmp") in
          Alcotest.(check bool) "fresh" false (Hashtbl.mem seen path);
          Hashtbl.replace seen path ();
          get "close" (S.close p fd)
        done)
  @ tc_both "access checks the mask" (fun config ->
        let kernel, root_p = ram_kernel ~config () in
        get "f" (S.write_file root_p "/shared" "x");
        get "mode" (S.chmod root_p "/shared" 0o644);
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        get "read ok" (S.access alice_p "/shared" Access.may_read);
        expect_err Errno.EACCES "write denied" (S.access alice_p "/shared" Access.may_write))
  @ tc_both "chown requires root" (fun config ->
        let kernel, root_p = ram_kernel ~config () in
        get "f" (S.write_file root_p "/f" "x");
        get "give to alice" (S.chown root_p "/f" ~uid:1000 ~gid:1000);
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        expect_err Errno.EPERM "alice chown" (S.chown alice_p "/f" ~uid:1001 ~gid:1001);
        get "alice chmod own file" (S.chmod alice_p "/f" 0o600);
        let bob_p = Proc.spawn ~cred:(bob ()) kernel in
        expect_err Errno.EPERM "bob chmod" (S.chmod bob_p "/f" 0o777))
  @ tc_both "truncate syscall" (fun config ->
        let _, p = ram_kernel ~config () in
        get "f" (S.write_file p "/f" "0123456789");
        get "truncate" (S.truncate p "/f" 3);
        Alcotest.(check string) "shrunk" "012" (get "read" (S.read_file p "/f"));
        expect_err Errno.EINVAL "negative" (S.truncate p "/f" (-1));
        get "d" (S.mkdir_p p "/d");
        expect_err Errno.EINVAL "dir" (S.truncate p "/d" 0))
  @ tc_both "chdir/fchdir" (fun config ->
        let _, p = ram_kernel ~config () in
        get "t" (S.mkdir_p p "/w/x");
        get "f" (S.write_file p "/w/x/f" "rel");
        get "chdir" (S.chdir p "/w");
        Alcotest.(check string) "relative read" "rel" (get "read" (S.read_file p "x/f"));
        let fd = get "open x" (S.openf p "x" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
        get "fchdir" (S.fchdir p fd);
        Alcotest.(check string) "deeper" "rel" (get "read" (S.read_file p "f"));
        get "close" (S.close p fd);
        expect_err Errno.ENOTDIR "chdir to file" (S.chdir p "/w/x/f"))
  @ tc_both "openat/fstatat relative to dirfd" (fun config ->
        let _, p = ram_kernel ~config () in
        get "t" (S.mkdir_p p "/base/sub");
        get "f" (S.write_file p "/base/sub/leaf" "L");
        let dirfd = get "open base" (S.openf p "/base" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
        let a = get "fstatat" (S.fstatat p dirfd "sub/leaf" ()) in
        Alcotest.(check int) "size" 1 a.Attr.size;
        let fd = get "openat" (S.openat p dirfd "sub/leaf" [ Proc.O_RDONLY ]) in
        Alcotest.(check string) "read" "L" (get "pread" (S.pread p fd ~off:0 ~len:5));
        get "close" (S.close p fd);
        (* absolute path ignores dirfd *)
        let abs = get "fstatat abs" (S.fstatat p dirfd "/base/sub/leaf" ()) in
        Alcotest.(check int) "same ino" a.Attr.ino abs.Attr.ino;
        (* O_CREAT resolves against dirfd too, under either lock scope *)
        get "close created"
          (S.close p (get "openat creat" (S.openat p dirfd "made" [ Proc.O_CREAT; Proc.O_WRONLY ])));
        ignore (get "created under dirfd" (S.stat p "/base/made"));
        expect_err Errno.ENOENT "not under cwd" (S.stat p "/made");
        get "close dir" (S.close p dirfd))
  @ tc_both "unlink/rmdir errno matrix" (fun config ->
        let _, p = ram_kernel ~config () in
        get "d" (S.mkdir_p p "/d/sub");
        get "f" (S.write_file p "/d/f" "x");
        expect_err Errno.EISDIR "unlink dir" (S.unlink p "/d/sub");
        expect_err Errno.ENOTDIR "rmdir file" (S.rmdir p "/d/f");
        expect_err Errno.ENOTEMPTY "rmdir non-empty" (S.rmdir p "/d");
        expect_err Errno.ENOENT "unlink missing" (S.unlink p "/d/ghost");
        get "ok" (S.rmdir p "/d/sub"))
  @ tc_both "rename across mounts is EXDEV" (fun config ->
        let _, p = ram_kernel ~config () in
        get "m" (S.mkdir_p p "/m");
        get "f" (S.write_file p "/f" "x");
        let other = Dcache_fs.Ramfs.create () in
        get "mount" (S.mount_fs p other "/m");
        expect_err Errno.EXDEV "cross-fs" (S.rename p "/f" "/m/f"))
  @ tc_both "rename/unlink of a mountpoint is EBUSY" (fun config ->
        let _, p = ram_kernel ~config () in
        get "m" (S.mkdir_p p "/m");
        let other = Dcache_fs.Ramfs.create () in
        get "mount" (S.mount_fs p other "/m");
        expect_err Errno.EBUSY "rename mountpoint" (S.rename p "/m" "/m2");
        expect_err Errno.EBUSY "rmdir mountpoint" (S.rmdir p "/m"))
  @ tc_both "non-root cannot mount or chroot" (fun config ->
        let kernel, root_p = ram_kernel ~config () in
        get "d" (S.mkdir_p root_p "/d");
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        expect_err Errno.EPERM "mount" (S.mount_fs alice_p (Dcache_fs.Ramfs.create ()) "/d");
        expect_err Errno.EPERM "chroot" (S.chroot alice_p "/d");
        expect_err Errno.EPERM "umount" (S.umount alice_p "/d"))
  @ tc_both "write denied without permission" (fun config ->
        let kernel, root_p = ram_kernel ~config () in
        get "f" (S.write_file root_p "/rootfile" "secret");
        get "mode" (S.chmod root_p "/rootfile" 0o600);
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        expect_err Errno.EACCES "read" (S.openf alice_p "/rootfile" [ Proc.O_RDONLY ]);
        expect_err Errno.EACCES "write" (S.openf alice_p "/rootfile" [ Proc.O_WRONLY ]);
        get "open up" (S.chmod root_p "/rootfile" 0o644);
        let fd = get "now read" (S.openf alice_p "/rootfile" [ Proc.O_RDONLY ]) in
        get "close" (S.close alice_p fd))
  @ tc_both "create denied in unwritable directory" (fun config ->
        let kernel, root_p = ram_kernel ~config () in
        get "d" (S.mkdir_p root_p "/guarded");
        get "mode" (S.chmod root_p "/guarded" 0o755);
        let alice_p = Proc.spawn ~cred:(alice ()) kernel in
        expect_err Errno.EACCES "create" (S.write_file alice_p "/guarded/f" "x");
        expect_err Errno.EACCES "mkdir" (S.mkdir alice_p "/guarded/d");
        expect_err Errno.EACCES "symlink" (S.symlink alice_p ~target:"x" "/guarded/l"))
  @ tc_both "set_label drives the MAC module" (fun config ->
        let rules =
          [ { Dcache_cred.Maclabel.domain = "web_t"; label = "web_content";
              allow = Access.may_read } ]
        in
        let lsms = [ Dcache_cred.Maclabel.hooks ~rules ] in
        let kernel, root_p = ram_kernel ~config ~lsms () in
        get "f" (S.write_file root_p "/content" "page");
        get "mode" (S.chmod root_p "/content" 0o644);
        let web = Proc.spawn ~cred:(Cred.make ~uid:33 ~gid:33 ~label:"web_t" ()) kernel in
        ignore (get "pre-label read" (S.read_file web "/content"));
        get "label" (S.set_label root_p "/content" (Some "secret_data"));
        expect_err Errno.EACCES "denied by MAC" (S.read_file web "/content");
        get "relabel" (S.set_label root_p "/content" (Some "web_content"));
        Alcotest.(check string) "allowed again" "page" (get "read" (S.read_file web "/content")))

let at_family_suite =
  tc_both "mkdirat/unlinkat/symlinkat relative to dirfd" (fun config ->
      let _, p = ram_kernel ~config () in
      get "base" (S.mkdir_p p "/base");
      let dirfd = get "open" (S.openf p "/base" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
      get "mkdirat" (S.mkdirat p dirfd "sub");
      ignore (get "visible" (S.stat p "/base/sub"));
      get "symlinkat" (S.symlinkat p ~target:"/base/sub" dirfd "lnk");
      Alcotest.(check string) "readlinkat" "/base/sub" (get "rl" (S.readlinkat p dirfd "lnk"));
      get "file" (S.write_file p "/base/victim" "x");
      get "faccessat" (S.faccessat p dirfd "victim" Access.may_read);
      get "unlinkat" (S.unlinkat p dirfd "victim");
      expect_err Errno.ENOENT "gone" (S.stat p "/base/victim");
      expect_err Errno.EISDIR "unlinkat dir" (S.unlinkat p dirfd "sub");
      (* dirfd must be a directory *)
      get "f" (S.write_file p "/plain" "x");
      let filefd = get "open file" (S.openf p "/plain" [ Proc.O_RDONLY ]) in
      expect_err Errno.ENOTDIR "bad dirfd" (S.mkdirat p filefd "nope");
      get "close" (S.close p filefd);
      get "close dir" (S.close p dirfd))
  @ tc_both "getcwd follows chdir and mounts" (fun config ->
        let _, p = ram_kernel ~config () in
        Alcotest.(check string) "at root" "/" (get "cwd" (S.getcwd p));
        get "tree" (S.mkdir_p p "/a/b/c");
        get "cd" (S.chdir p "/a/b/c");
        Alcotest.(check string) "nested" "/a/b/c" (get "cwd" (S.getcwd p));
        (* across a mount boundary *)
        get "mnt" (S.mkdir_p p "/mnt");
        let other = Dcache_fs.Ramfs.create () in
        get "mount" (S.mount_fs p other "/mnt");
        get "inner" (S.mkdir_p p "/mnt/deep");
        get "cd2" (S.chdir p "/mnt/deep");
        Alcotest.(check string) "across mount" "/mnt/deep" (get "cwd" (S.getcwd p)))
  @ tc_both "getcwd of a removed directory is ENOENT" (fun config ->
        let _, p = ram_kernel ~config () in
        get "d" (S.mkdir_p p "/doomed");
        get "cd" (S.chdir p "/doomed");
        let p2 = Proc.fork p in
        get "cd away" (S.chdir p2 "/");
        get "rmdir" (S.rmdir p2 "/doomed");
        expect_err Errno.ENOENT "removed cwd" (S.getcwd p))
  @ tc_both "getcwd respects chroot" (fun config ->
        let _, p = ram_kernel ~config () in
        get "jail" (S.mkdir_p p "/jail/home");
        let j = Proc.fork p in
        get "chroot" (S.chroot j "/jail");
        get "cd" (S.chdir j "/home");
        Alcotest.(check string) "jail-relative" "/home" (get "cwd" (S.getcwd j)))

let procfs_suite =
  tc_both "kernel procfs introspection" (fun config ->
      let kernel, p = ram_kernel ~config () in
      get "mnt" (S.mkdir_p p "/proc");
      get "mount"
        (S.mount_fs p (Dcache_syscalls.Kernel_procfs.make kernel) "/proc");
      let version = get "version" (S.read_file p "/proc/version") in
      Alcotest.(check bool) "banner" true (String.length version > 0);
      let cfg = get "config" (S.read_file p "/proc/dcache/config") in
      Alcotest.(check bool) "reports fastpath flag" true
        (Kit.contains_substring cfg
           (Printf.sprintf "fastpath %b" config.Config.fastpath));
      (* stats change as the kernel runs *)
      let stats1 = get "stats1" (S.read_file p "/proc/dcache/stats") in
      get "work" (S.mkdir_p p "/workload/x");
      ignore (get "stat" (S.stat p "/workload/x"));
      let stats2 = get "stats2" (S.read_file p "/proc/dcache/stats") in
      Alcotest.(check bool) "stats are live" true (stats1 <> stats2);
      let summary = get "summary" (S.read_file p "/proc/dcache/summary") in
      Alcotest.(check bool) "has dentry count" true
        (Kit.contains_substring summary "dentries "))

(* --- Table 1's path statistics ---

   Every public lookup adds one to "path_lookup", its length to
   "path_bytes" and its non-empty components — "." and ".." included — to
   "path_comps", whichever machinery resolved it: a warm probe, a dot-dot
   sub-lookup (Linux) or in-place cancel (lexical), a followed symlink, a
   miss that falls back, a probe that falls back before its scan reaches
   the end, or a lockless probe that raced a writer and retried. *)

let components path = List.length (List.filter (( <> ) "") (String.split_on_char '/' path))

let path_stats kernel =
  (counter kernel "path_lookup", counter kernel "path_bytes", counter kernel "path_comps")

let check_one_lookup kernel what path f =
  let l0, b0, c0 = path_stats kernel in
  f path;
  let l1, b1, c1 = path_stats kernel in
  Alcotest.(check (list int))
    (what ^ " " ^ path)
    [ 1; String.length path; components path ]
    [ l1 - l0; b1 - b0; c1 - c0 ]

let path_stats_suite =
  let lexical config = { config with Config.dotdot = Config.Dotdot_lexical } in
  List.concat_map
    (fun (label, config) ->
      [
        Alcotest.test_case ("Table 1 path statistics [" ^ label ^ "]") `Quick (fun () ->
            (* A permission hook that, armed, runs one empty write section:
               the lockless probe whose climb it interrupts must retry. *)
            let race = ref None in
            let hook =
              {
                Dcache_cred.Lsm.name = "race";
                inode_permission =
                  (fun _ _ _ ->
                    (match !race with
                    | Some d ->
                      race := None;
                      Dcache_vfs.Dcache.with_write d ignore
                    | None -> ());
                    true);
              }
            in
            let kernel, p = ram_kernel ~config ~lsms:[ hook ] () in
            get "tree" (S.mkdir_p p "/a/b/c");
            get "file" (S.write_file p "/a/b/c/f" "x");
            get "link" (S.symlink p ~target:"/a/b/c/f" "/lnk");
            get "dir link" (S.symlink p ~target:"/a/b" "/dl");
            let dirfd = get "dirfd" (S.openf p "/a" [ Proc.O_RDONLY; Proc.O_DIRECTORY ]) in
            let fresh = ref 0 in
            let paths () =
              incr fresh;
              [ "/a/b/c/f"; "/a/./b/c/f"; "/a/b/../b/c/f"; "/a/../a/b/../../a/b/c/./f";
                "//a//b///c/f"; "/a/b/c/"; "/a/b/c/f/"; "/lnk"; "/dl/c/f"; "/"; "."; "..";
                "a/b/c/f"; "/a/b/c/missing"; "/a/b/c/missing/deeper";
                Printf.sprintf "/a/b/fresh%d" !fresh; "/a/b/zz/../c/f"; "";
                "/a/" ^ String.make 256 'x' ^ "/f" ]
            in
            let ops =
              [ ("stat", fun path -> ignore (S.stat p path));
                ("lstat", fun path -> ignore (S.lstat p path));
                ("access", fun path -> ignore (S.access p path Access.may_read));
                ("open", fun path ->
                    match S.openf p path [ Proc.O_RDONLY ] with
                    | Ok fd -> get "close" (S.close p fd)
                    | Error _ -> ());
                ("fstatat", fun path -> ignore (S.fstatat p dirfd path ())) ]
            in
            (* Twice: cold, then with the cache warm. *)
            for _ = 1 to 2 do
              List.iter
                (fun (what, f) -> List.iter (fun path -> check_one_lookup kernel what path f) (paths ()))
                ops
            done;
            if config.Config.fastpath then begin
              Alcotest.(check bool) "some lookup fell back" true (counter kernel "fastpath_fallback" > 0);
              (* Alice's PCC knows the directory only: her stat refills
                 with a climb, which the armed hook races once. *)
              let alice_p = Proc.spawn ~cred:(alice ()) kernel in
              ignore (get "alice warms the dir" (S.stat alice_p "/a/b/c"));
              let retries = counter kernel "fastpath_lockless_retry" in
              race := Some (Kernel.dcache kernel);
              check_one_lookup kernel "raced stat" "/a/b/c/f" (fun path ->
                  ignore (get "alice stats" (S.stat alice_p path)));
              Alcotest.(check int) "one lockless retry" 1
                (counter kernel "fastpath_lockless_retry" - retries)
            end);
      ])
    [ ("baseline", Config.baseline); ("baseline, lexical ..", lexical Config.baseline);
      ("optimized", Config.optimized); ("optimized, lexical ..", lexical Config.optimized) ]
  (* The ring's bounds: a full SQ refuses a push, a slot outside the
     current submission is rejected, an empty submit does nothing, and
     reset makes slot indices start again at 0. *)
  @ tc_both "batch ring bounds: full ring, unknown slot, empty submit" (fun config ->
        let kernel, p = ram_kernel ~config () in
        get "tree" (S.mkdir_p p "/a");
        get "file" (S.write_file p "/a/f" "xyz");
        Alcotest.check_raises "cap 0 rejected"
          (Invalid_argument "Batch.create: cap must be positive") (fun () ->
            ignore (Dcache_syscalls.Batch.create ~cap:0 p));
        let module B = Dcache_syscalls.Batch in
        let ring = B.create ~cap:2 p in
        let out_of_range = Invalid_argument "Batch: slot out of range" in
        Alcotest.check_raises "nothing enqueued" out_of_range (fun () -> ignore (B.ok ring 0));
        Alcotest.(check int) "slot 0" 0 (B.push_stat ring "/a/f");
        Alcotest.(check int) "slot 1" 1 (B.push_stat ring "/a/missing");
        Alcotest.(check int) "full ring refuses" (-1) (B.push_stat ring "/a");
        B.submit ring;
        Alcotest.(check bool) "hit ok" true (B.ok ring 0);
        Alcotest.(check int) "hit attr == stat" (get "stat" (S.stat p "/a/f")).Attr.ino
          (B.attr ring 0).Attr.ino;
        Alcotest.(check bool) "miss fails" false (B.ok ring 1);
        Alcotest.check errno "miss errno" Errno.ENOENT (B.errno ring 1);
        Alcotest.check_raises "slot past the submission" out_of_range (fun () ->
            ignore (B.errno ring 2));
        Alcotest.check_raises "negative slot" out_of_range (fun () -> ignore (B.attr ring (-1)));
        B.reset ring;
        Alcotest.check_raises "reset forgets completions" out_of_range (fun () ->
            ignore (B.ok ring 0));
        let submits = counter kernel "batch_submit" in
        B.submit ring;
        Alcotest.(check int) "empty submit counts nothing" submits (counter kernel "batch_submit");
        Alcotest.(check int) "slots restart at 0" 0 (B.push_stat ring "/a");
        B.submit ring;
        Alcotest.(check bool) "reused slot ok" true (B.ok ring 0);
        Alcotest.(check int) "one more submit" (submits + 1) (counter kernel "batch_submit"))
  (* A batched submission counts each op as the sequential syscall does:
     the same ops, issued either way on twin kernels, leave equal
     counters — cold, then warm. *)
  @ tc_both "Table 1 path statistics: batched == sequential" (fun config ->
        let twin () =
          let kernel, p = ram_kernel ~config () in
          get "tree" (S.mkdir_p p "/a/b/c");
          get "file" (S.write_file p "/a/b/c/f" "x");
          get "link" (S.symlink p ~target:"/a/b/c/f" "/lnk");
          (kernel, p)
        in
        let seq_kernel, seq_p = twin () in
        let batch_kernel, batch_p = twin () in
        let ring = Dcache_syscalls.Batch.create ~cap:64 batch_p in
        let paths =
          [ "/a/b/c/f"; "/a/./b/c/f"; "/a/b/../b/c/f"; "//a//b///c/f"; "/a/b/c/"; "/lnk";
            "/a/b/c/missing"; "/a/b/zz/../c/f"; "a/b/c"; ".."; ""; "/a/b/" ^ String.make 256 'x' ]
        in
        for _ = 1 to 2 do
          let before = path_stats seq_kernel in
          List.iter
(fun path -> ignore (S.stat seq_p path)) paths;
          let after = path_stats seq_kernel in
          let b_before = path_stats batch_kernel in
          Dcache_syscalls.Batch.reset ring;
          List.iter
(fun path -> ignore (Dcache_syscalls.Batch.push_stat ring path)) paths;
          Dcache_syscalls.Batch.submit ring;
          let b_after = path_stats batch_kernel in
          let delta (l0, b0, c0) (l1, b1, c1) = [ l1 - l0; b1 - b0; c1 - c0 ] in
          let sum f = List.fold_left (fun acc path -> acc + f path) 0 paths in
          Alcotest.(check (list int))
            "sequential counts"
            [ sum (fun _ -> 1); sum String.length; sum components ]
            (delta before after);
          Alcotest.(check (list int)) "batched == sequential" (delta before after)
            (delta b_before b_after)
        done)

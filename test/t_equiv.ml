(* Observational equivalence: random syscall sequences must behave
   identically on the baseline and the optimized kernel.  This is the
   paper's core compatibility claim — every optimization is transparent to
   applications (§1, §4.4). *)

open Dcache_types
module Kernel = Dcache_syscalls.Kernel
module Proc = Dcache_syscalls.Proc
module S = Dcache_syscalls.Syscalls
module Config = Dcache_vfs.Config
module Cred = Dcache_cred.Cred

(* Small vocabularies keep collisions (same path reused across ops) likely. *)
let names = [| "a"; "b"; "c"; "dd"; "ee" |]

type op =
  | Mkdir of string
  | Create of string * string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Symlink of string * string
  | Link of string * string
  | Stat of string
  | Lstat of string
  | Read of string
  | Readdir of string
  | Chmod of string * int
  | Chdir of string
  | Getcwd
  | Access of string
  | Truncate of string * int
  | Mkdirat of string * string  (** directory to open, path relative to its fd *)
  | Unlinkat of string * string
  | AsUser of op

let rec pp_op = function
  | Mkdir p -> "mkdir " ^ p
  | Create (p, data) -> Printf.sprintf "create %s %S" p data
  | Unlink p -> "unlink " ^ p
  | Rmdir p -> "rmdir " ^ p
  | Rename (a, b) -> Printf.sprintf "rename %s %s" a b
  | Symlink (t, p) -> Printf.sprintf "symlink %s -> %s" p t
  | Link (a, b) -> Printf.sprintf "link %s %s" a b
  | Stat p -> "stat " ^ p
  | Lstat p -> "lstat " ^ p
  | Read p -> "read " ^ p
  | Readdir p -> "readdir " ^ p
  | Chmod (p, m) -> Printf.sprintf "chmod %s %o" p m
  | Chdir p -> "chdir " ^ p
  | Getcwd -> "getcwd"
  | Access p -> "access " ^ p
  | Truncate (p, n) -> Printf.sprintf "truncate %s %d" p n
  | Mkdirat (d, p) -> Printf.sprintf "mkdirat %s %s" d p
  | Unlinkat (d, p) -> Printf.sprintf "unlinkat %s %s" d p
  | AsUser op -> "as-user " ^ pp_op op

let path_gen =
  QCheck.Gen.(
    let* depth = int_range 1 4 in
    let* comps = list_size (return depth) (oneofl (Array.to_list names)) in
    let* absolute = bool in
    let* dotdot = frequency [ (9, return false); (1, return true) ] in
    let comps = if dotdot && depth > 1 then List.mapi (fun i c -> if i = 1 then ".." else c) comps else comps in
    return ((if absolute then "/" else "") ^ String.concat "/" comps))

(* The *at ops name a shallow directory and a short relative path, so the
   directory fd usually opens and the call usually lands in a directory
   the trace has populated. *)
let at_dir_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ "."; "/" ]);
        (4, map2 (fun abs n -> (if abs then "/" else "") ^ n) bool (oneofl (Array.to_list names)));
      ])

let at_rel_gen =
  QCheck.Gen.(
    map (String.concat "/") (list_size (int_range 1 2) (oneofl (Array.to_list names))))

let op_gen =
  QCheck.Gen.(
    let base =
      [
        (3, map (fun p -> Mkdir p) path_gen);
        (4, map2 (fun p d -> Create (p, d)) path_gen (oneofl [ "x"; "data"; "0123456789" ]));
        (2, map (fun p -> Unlink p) path_gen);
        (1, map (fun p -> Rmdir p) path_gen);
        (2, map2 (fun a b -> Rename (a, b)) path_gen path_gen);
        (1, map2 (fun t p -> Symlink (t, p)) path_gen path_gen);
        (1, map2 (fun a b -> Link (a, b)) path_gen path_gen);
        (6, map (fun p -> Stat p) path_gen);
        (2, map (fun p -> Lstat p) path_gen);
        (2, map (fun p -> Read p) path_gen);
        (2, map (fun p -> Readdir p) path_gen);
        (1, map2 (fun p m -> Chmod (p, m)) path_gen (oneofl [ 0o755; 0o700; 0o000; 0o644 ]));
        (1, map (fun p -> Chdir p) path_gen);
        (1, return Getcwd);
        (2, map (fun p -> Access p) path_gen);
        (1, map2 (fun p n -> Truncate (p, n)) path_gen (oneofl [ 0; 3; 100 ]));
        (2, map2 (fun d p -> Mkdirat (d, p)) at_dir_gen at_rel_gen);
        (2, map2 (fun d p -> Unlinkat (d, p)) at_dir_gen at_rel_gen);
      ]
    in
    frequency ((2, map (fun op -> AsUser op) (frequency base)) :: base))

let ops_arbitrary =
  QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

(* Observations are normalized results: errno name, or a digest of the
   successful result.  Inode numbers are included — both kernels drive an
   identical ramfs, so even inos must agree. *)
let obs_of_attr (a : Attr.t) =
  Printf.sprintf "ino=%d kind=%c mode=%o size=%d nlink=%d" a.Attr.ino
    (File_kind.to_char a.Attr.kind) a.Attr.mode a.Attr.size a.Attr.nlink

let obs name = function
  | Ok v -> name ^ ":ok:" ^ v
  | Error e -> name ^ ":" ^ Errno.to_string e

(* The path an [*at] call names: [p] itself when absolute, else [p] under
   [dir]. *)
let at_path dir p = if Dcache_vfs.Path.is_absolute p then p else dir ^ "/" ^ p

(* Open [dir] as a directory fd, run [f] on it, close it. *)
let with_dirfd p dir f =
  match S.openf p dir [ Proc.O_RDONLY; Proc.O_DIRECTORY ] with
  | Error e -> Error e
  | Ok fd ->
    let r = f fd in
    ignore (S.close p fd);
    r

(* An [*at] call's result plus what its path names afterwards, so a call
   resolved against the wrong directory shows at once. *)
let at_obs name p dir path call =
  obs name (Result.map (fun () -> "") (with_dirfd p dir call))
  ^ "; then " ^ obs "lstat" (Result.map obs_of_attr (S.lstat p (at_path dir path)))

let run_op root_p user_p op =
  let rec go p = function
    | AsUser op -> go user_p op
    | Mkdir path -> obs "mkdir" (Result.map (fun () -> "") (S.mkdir p path))
    | Create (path, data) -> obs "create" (Result.map (fun () -> "") (S.write_file p path data))
    | Unlink path -> obs "unlink" (Result.map (fun () -> "") (S.unlink p path))
    | Rmdir path -> obs "rmdir" (Result.map (fun () -> "") (S.rmdir p path))
    | Rename (a, b) -> obs "rename" (Result.map (fun () -> "") (S.rename p a b))
    | Symlink (t, path) -> obs "symlink" (Result.map (fun () -> "") (S.symlink p ~target:t path))
    | Link (a, b) -> obs "link" (Result.map (fun () -> "") (S.link p a b))
    | Stat path -> obs "stat" (Result.map obs_of_attr (S.stat p path))
    | Lstat path -> obs "lstat" (Result.map obs_of_attr (S.lstat p path))
    | Read path -> obs "read" (S.read_file p path)
    | Readdir path ->
      obs "readdir"
        (Result.map
           (fun entries ->
             entries
             |> List.map (fun e ->
                    Printf.sprintf "%s/%d/%c" e.Dcache_fs.Fs_intf.name e.Dcache_fs.Fs_intf.ino
                      (File_kind.to_char e.Dcache_fs.Fs_intf.kind))
             |> List.sort compare |> String.concat ",")
           (S.readdir_path p path))
    | Chmod (path, mode) -> obs "chmod" (Result.map (fun () -> "") (S.chmod p path mode))
    | Chdir path -> obs "chdir" (Result.map (fun () -> "") (S.chdir p path))
    | Getcwd -> obs "getcwd" (S.getcwd p)
    | Access path -> obs "access" (Result.map (fun () -> "") (S.access p path Access.may_read))
    | Truncate (path, n) -> obs "truncate" (Result.map (fun () -> "") (S.truncate p path n))
    | Mkdirat (dir, path) -> at_obs "mkdirat" p dir path (fun fd -> S.mkdirat p fd path)
    | Unlinkat (dir, path) -> at_obs "unlinkat" p dir path (fun fd -> S.unlinkat p fd path)
  in
  go root_p op

let run_trace_in kernel ops =
  let root_p = Proc.spawn kernel in
  let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
  List.map (fun op -> run_op root_p user_p op) ops

let run_trace config ops =
  run_trace_in (Kernel.create ~config ~root_fs:(Dcache_fs.Ramfs.create ()) ()) ops

let equivalence_test extra_label config_b =
  QCheck.Test.make
    ~name:(Printf.sprintf "baseline == %s on random syscall traces" extra_label)
    ~count:150 ops_arbitrary
    (fun ops ->
      (* The baseline shares the dot-dot semantics under test. *)
      let base = run_trace { Config.baseline with Config.dotdot = config_b.Config.dotdot } ops in
      let opt = run_trace config_b ops in
      if base <> opt then begin
        let rec first_diff i = function
          | [], [] -> ()
          | a :: rest_a, b :: rest_b ->
            if a <> b then
              QCheck.Test.fail_reportf "op %d (%s):\n  baseline: %s\n  optimized: %s" i
                (pp_op (List.nth ops i)) a b
            else first_diff (i + 1) (rest_a, rest_b)
          | _ -> QCheck.Test.fail_reportf "trace length mismatch"
        in
        first_diff 0 (base, opt)
      end;
      true)

(* Re-running the same trace twice on one optimized kernel must agree with a
   fresh kernel on the second run's reads: cached state never goes stale. *)
let idempotence_test =
  QCheck.Test.make ~name:"optimized kernel: warm rerun of reads is stable" ~count:75
    ops_arbitrary
    (fun ops ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      (* Now query state twice; the second (all-cached) pass must agree. *)
      let queries =
        List.filter_map
          (function
            | Stat _ | Lstat _ | Read _ | Readdir _ -> None
            | Mkdir p | Create (p, _) | Unlink p | Rmdir p | Rename (_, p)
            | Symlink (_, p) | Link (_, p) | Chmod (p, _) | Truncate (p, _) ->
              Some [ Stat p; Lstat p; Read p; Readdir p ]
            | Mkdirat (d, p) | Unlinkat (d, p) ->
              let p = at_path d p in
              Some [ Stat p; Lstat p; Read p; Readdir p ]
            | Chdir _ | Getcwd | Access _ | AsUser _ -> None)
          ops
        |> List.concat
      in
      let pass () = List.map (fun op -> run_op root_p user_p op) queries in
      let cold = pass () in
      let warm = pass () in
      cold = warm)

(* Structural invariants hold after any operation sequence, on every
   configuration, including under eviction pressure. *)
let invariants_test name config =
  QCheck.Test.make ~name ~count:100 ops_arbitrary (fun ops ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      match Dcache_vfs.Dcache.self_check (Kernel.dcache kernel) with
      | [] -> true
      | problems ->
        QCheck.Test.fail_reportf "invariants violated:\n%s" (String.concat "\n" problems))

(* --- prefix-resume equivalence (§3.5) ---

   Deterministic deep-path churn: a 16-deep directory chain whose ancestors
   get warmed, then cold leaf lookups interleaved with renames, permission
   churn (including full search-permission revocation on an interior
   directory, observed by the unprivileged user) and unlinks.  The
   optimized kernel serves the cold misses through the prefix-resumed
   slowpath — the longest-cached-ancestor shortcut — while the baseline
   walks every path from the root; all observations must agree, and the
   optimized run must actually have taken resumes (else the test is
   vacuous). *)

let chain_names =
  [| "alpha"; "beta"; "gamma"; "delta"; "eps"; "zeta"; "eta"; "theta";
     "iota"; "kappa"; "lambda"; "mu"; "nu"; "xi"; "omicron"; "pi" |]

let prefix_path k = "/" ^ String.concat "/" (Array.to_list (Array.sub chain_names 0 k))

let deep_churn_ops seed =
  let rng = Random.State.make [| seed |] in
  let depth = Array.length chain_names in
  let mk = List.init depth (fun i -> Mkdir (prefix_path (i + 1))) in
  let body = ref [] in
  let emit op = body := op :: !body in
  emit (Stat (prefix_path depth));
  for i = 0 to 119 do
    let r = Random.State.int rng 100 in
    let k = 2 + Random.State.int rng (depth - 2) in
    if r < 35 then begin
      (* Cold leaf under the warm chain: the optimized side resumes from
         the deepest cached ancestor. *)
      let leaf = prefix_path depth ^ Printf.sprintf "/f%d" i in
      emit (Create (leaf, "x"));
      emit (Stat leaf)
    end
    else if r < 50 then
      (* Absent name under a cached interior dir: negative fast-fail
         territory once the dir is DIR_COMPLETE. *)
      emit (Stat (prefix_path k ^ "/nope" ^ string_of_int (i land 3)))
    else if r < 62 then begin
      (* Rename an interior directory away and back: any snapshot taken
         across the rename must be refused (§3.2 invalidation counter). *)
      let p = prefix_path k in
      let tmp = prefix_path (k - 1) ^ "/tmp" in
      emit (Rename (p, tmp));
      emit (Stat (prefix_path depth));
      emit (Rename (tmp, p));
      emit (Stat (prefix_path depth ^ "/f" ^ string_of_int (i / 2)))
    end
    else if r < 74 then begin
      (* Permission churn on an interior directory of the resumed prefix,
         including full revocation: the user's lookups below it must fail
         with EACCES on both kernels — resume may never skip the check. *)
      let p = prefix_path k in
      let mode = [| 0o755; 0o700; 0o000 |].(Random.State.int rng 3) in
      emit (Chmod (p, mode));
      emit (AsUser (Stat (prefix_path depth)));
      emit (AsUser (Stat (prefix_path depth ^ "/fz" ^ string_of_int i)));
      emit (Chmod (p, 0o755))
    end
    else if r < 86 then begin
      let leaf = prefix_path depth ^ Printf.sprintf "/f%d" (Random.State.int rng (i + 1)) in
      emit (Unlink leaf);
      emit (Stat leaf)
    end
    else begin
      emit (Readdir (prefix_path k));
      emit (Stat (prefix_path k ^ "/" ^ chain_names.(k)))
    end
  done;
  mk @ List.rev !body

let run_trace_counting config ops =
  let fs = Dcache_fs.Ramfs.create () in
  let kernel = Kernel.create ~config ~root_fs:fs () in
  let root_p = Proc.spawn kernel in
  let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
  let observations = List.map (fun op -> run_op root_p user_p op) ops in
  (observations, kernel)

let counter kernel key =
  List.assoc key (Kernel.stats_snapshot kernel)

(* The deep churn on [config] against the baseline: every observation
   agrees, the dcache stays consistent, and the [exercised] counter moved
   (else the test is vacuous). *)
let deep_churn_test ~name ~config ~exercised seed =
  Alcotest.test_case (Printf.sprintf "%s [seed %d]" name seed) `Quick
    (fun () ->
      let ops = deep_churn_ops seed in
      let base, _ = run_trace_counting Config.baseline ops in
      let opt, kernel = run_trace_counting config ops in
      let rec first_diff i ops_left = function
        | [], [] -> ()
        | a :: rest_a, b :: rest_b ->
          let op, ops_rest =
            match ops_left with o :: r -> (pp_op o, r) | [] -> ("?", [])
          in
          if a <> b then
            Alcotest.failf "op %d (%s):\n  baseline: %s\n  optimized: %s" i op a b
          else first_diff (i + 1) ops_rest (rest_a, rest_b)
        | _ -> Alcotest.fail "trace length mismatch"
      in
      first_diff 0 ops (base, opt);
      Alcotest.(check (list string)) "dcache invariants" []
        (Dcache_vfs.Dcache.self_check (Kernel.dcache kernel));
      Alcotest.(check bool) (exercised ^ " exercised") true (counter kernel exercised > 0))

let prefix_resume_churn_test =
  deep_churn_test ~name:"prefix-resume deep churn" ~config:Config.optimized
    ~exercised:"fastpath_prefix_resume"

(* A 16-entry PCC evicts constantly, so most DLHT hits refill their entry
   by climbing the cached parents — under renames, chmods (full revocation
   included, observed by the unprivileged user) and unlinks. *)
let tiny_pcc = { Config.optimized with Config.pcc_entries = 16 }

let refill_churn_test =
  deep_churn_test ~name:"16-entry PCC refill churn" ~config:tiny_pcc
    ~exercised:"fastpath_pcc_refill"

(* Focused revocation scenario: the user warms a deep prefix (populating
   their PCC down the chain), root revokes search permission on an interior
   directory, then the user cold-misses on a leaf that was never cached.
   The snapshot scan would offer a deep resume ancestor below the revoked
   directory; trusting it would yield ENOENT (the suffix walk never
   re-crosses the revoked dir).  Correctness demands EACCES — the chmod
   bumps every descendant's version, killing the PCC entries the resume
   validation depends on, and forcing the from-root walk. *)
let revocation_test =
  Alcotest.test_case "revoked interior search perm blocks prefix resume" `Quick
    (fun () ->
      List.iter
        (fun config ->
          let fs = Dcache_fs.Ramfs.create () in
          let kernel = Kernel.create ~config ~root_fs:fs () in
          let root_p = Proc.spawn kernel in
          let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
          let deep = prefix_path 8 in
          List.iteri
            (fun i _ ->
              match S.mkdir root_p (prefix_path (i + 1)) with
              | Ok () -> ()
              | Error e -> Alcotest.failf "mkdir: %s" (Errno.to_string e))
            (List.init 8 (fun i -> i));
          (match S.write_file root_p (deep ^ "/warm") "x" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "create: %s" (Errno.to_string e));
          (* Warm the chain as the user: PCC entries for every prefix. *)
          (match S.stat user_p (deep ^ "/warm") with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "warm stat: %s" (Errno.to_string e));
          (* Root creates a leaf the user has never looked up, then revokes
             search permission two levels deep. *)
          (match S.write_file root_p (deep ^ "/cold") "y" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cold create: %s" (Errno.to_string e));
          (match S.chmod root_p (prefix_path 2) 0o000 with
          | Ok () -> ()
          | Error e -> Alcotest.failf "chmod: %s" (Errno.to_string e));
          (match S.stat user_p (deep ^ "/cold") with
          | Error Errno.EACCES -> ()
          | Ok _ -> Alcotest.fail "revoked prefix resolved for the user"
          | Error e ->
            Alcotest.failf "expected EACCES, got %s" (Errno.to_string e)))
        [ Config.baseline; Config.optimized ])

(* Traces whose answers a cache can get wrong:
   - a caller without search permission on a directory gets EACCES there,
     before any answer the cached names inside it could give: a complete
     directory's fast-fail ENOENT, or a stripe-scope mutation's EEXIST,
     EISDIR, ENOTDIR or cached-negative ENOENT;
   - a removed directory still pinned as the cwd sends lookups inside it
     to the file system, not to the completeness of its dropped listing,
     and caches nothing under itself;
   - a path through a symlink whose target was created over a cached
     negative answers from the target, not from the alias's stale copy. *)
let scripted_traces_test =
  Alcotest.test_case "scripted traces: revoked search, removed cwd, alias" `Quick (fun () ->
      List.iter
        (fun ops ->
          let opt, kernel = run_trace_counting Config.optimized ops in
          List.iteri
            (fun i (a, b) ->
              if a <> b then
                Alcotest.failf "op %d (%s):\n  baseline: %s\n  optimized: %s" i
                  (pp_op (List.nth ops i)) a b)
            (List.combine (run_trace Config.baseline ops) opt);
          Alcotest.(check (list string))
            "dcache invariants" []
            (Dcache_vfs.Dcache.self_check (Kernel.dcache kernel)))
        [
          [ Mkdir "/a"; AsUser (Lstat "/a"); Chmod ("/a", 0o644); AsUser (Stat "/a/a") ];
          [
            Mkdir "/d"; Mkdir "/d/e"; Create ("/d/f", "x"); Stat "/d/x"; Chmod ("/d", 0o644);
            AsUser (Mkdir "/d/e"); AsUser (Mkdirat ("/", "d/e")); AsUser (Unlink "/d/e");
            AsUser (Unlink "/d/x"); AsUser (Rmdir "/d/f"); AsUser (Rename ("/d/x", "/y"));
          ];
          [ Mkdir "a"; Chdir "a"; Rmdir "/a"; Stat "c"; Mkdirat (".", "c/d"); Readdir "." ];
          [
            Mkdir "/b"; Symlink ("b", "/c"); Readdir "/c/c"; Stat "/c/c/x"; Mkdir "/c/c";
            Lstat "/c/c"; Stat "/c/c/x"; Create ("/c/c/x", "y"); Read "/c/c/x";
          ];
        ])

(* Path-validation errno precedence.  An empty path is ENOENT; a path over
   4096 bytes, or one with a component over 255 bytes anywhere in it, is
   ENAMETOOLONG — before a missing directory, after one, after "..", or
   after a symlink, cold or warm.  The optimized kernel finds a too-long
   component during its one scan of the path; every kernel must still
   answer what the baseline answers, and what these lookups always
   answered. *)
let errno_precedence_test =
  Alcotest.test_case "path validation errno precedence" `Quick (fun () ->
      let long = String.make 256 'x' in
      let cases =
        [ ("", Errno.ENOENT);
          ("/" ^ String.concat "/" (List.init 1100 (fun _ -> "abc")), Errno.ENAMETOOLONG);
          ("/" ^ long ^ "/missing/f", Errno.ENAMETOOLONG);
          ("/missing/" ^ long, Errno.ENAMETOOLONG);
          ("/d/missing/" ^ long ^ "/f", Errno.ENAMETOOLONG);
          ("/d/../" ^ long, Errno.ENAMETOOLONG);
          ("/missing/../" ^ long, Errno.ENAMETOOLONG);
          ("/lnk/" ^ long, Errno.ENAMETOOLONG);
          ("/lnk/e/" ^ long ^ "/f", Errno.ENAMETOOLONG);
          ("/d/e/" ^ String.make 255 'y', Errno.ENOENT) ]
      in
      let answers config =
        let _, p = Kit.ram_kernel ~config () in
        Kit.get "tree" (S.mkdir_p p "/d/e");
        Kit.get "link" (S.symlink p ~target:"/d" "/lnk");
        ignore (Kit.get "warm" (S.stat p "/lnk/e"));
        List.concat_map
          (fun (path, _) ->
            let errno = function Ok _ -> "ok" | Error e -> Errno.to_string e in
            (* Twice each: cold, then after the first lookup populated. *)
            List.concat_map
              (fun () ->
                [ errno (S.stat p path); errno (S.lstat p path);
                  errno (S.access p path Access.may_read);
                  errno (S.openf p path [ Proc.O_RDONLY ]) ])
              [ (); () ])
          cases
      in
      let expected =
        List.concat_map (fun (_, e) -> List.init 8 (fun _ -> Errno.to_string e)) cases
      in
      List.iter
        (fun (label, config) ->
          Alcotest.(check (list string)) label expected (answers config))
        [ ("baseline", Config.baseline); ("optimized", Config.optimized);
          ("optimized, lexical ..", { Config.optimized with Config.dotdot = Config.Dotdot_lexical })
        ])

(* Absent-name probes (§5.1, §5.2).  With completeness off the absent name
   is cached as a negative dentry, so repeated probes are plain fastpath
   negative hits.  With it on, a complete directory is its own negative
   cache: the same probes are prefix fast-fails and no negative is ever
   created.  Either way the application-visible behaviour stays exactly
   the baseline's ENOENT, including after the name is finally created. *)
let absent_name_test =
  Alcotest.test_case "absent-name probes: negative hits when incomplete, fast-fails when complete" `Quick
    (fun () ->
      let ops =
        (* The root is listed first, so with completeness on no directory
           in the trace is ever incomplete. *)
        [ Readdir "/"; Mkdir "/pd"; Create ("/pd/real", "x"); Readdir "/pd" ]
        @ List.concat_map
            (fun _ -> [ Stat "/pd/ghost"; Read "/pd/ghost"; Access "/pd/ghost" ])
            (List.init 6 (fun i -> i))
        @ [ Create ("/pd/ghost", "now"); Stat "/pd/ghost"; Read "/pd/ghost" ]
      in
      let base, _ = run_trace_counting Config.baseline ops in
      let check_equiv opt =
        List.iteri
          (fun i (a, b) ->
            if a <> b then
              Alcotest.failf "op %d (%s):\n  baseline: %s\n  optimized: %s" i
                (pp_op (List.nth ops i)) a b)
          (List.combine base opt)
      in
      let incomplete, kernel =
        run_trace_counting { Config.optimized with Config.dir_completeness = false } ops
      in
      check_equiv incomplete;
      Alcotest.(check bool) "incomplete: later probes were warm negative hits" true
        (counter kernel "fastpath_negative_hit" > 0);
      let complete, kernel = run_trace_counting Config.optimized ops in
      check_equiv complete;
      Alcotest.(check bool) "complete: probes were prefix fast-fails" true
        (counter kernel "fastpath_prefix_negfail" > 0);
      Alcotest.(check int) "complete: no negative created" 0
        (counter kernel "negative_created");
      Alcotest.(check (list string)) "dcache invariants" []
        (Dcache_vfs.Dcache.self_check (Kernel.dcache kernel)))

(* --- profiling transparency (§3.8) ---

   Arming the profiler (spans minted per syscall, sketch updates on every
   verdict, span-carrying ring stamps) must be invisible to applications:
   the same deterministic deep-churn trace, run disarmed and armed on the
   optimized kernel, must produce identical observations — and the armed
   run must actually have profiled something, else the test is vacuous. *)

let run_trace_armed config ops =
  let module Trace = Dcache_util.Trace in
  let kernel = Kernel.create ~config ~root_fs:(Dcache_fs.Ramfs.create ()) () in
  Trace.reset ();
  Trace.armed := true;
  Fun.protect
    ~finally:(fun () ->
      Trace.armed := false;
      Trace.reset ())
    (fun () ->
      let observations = run_trace_in kernel ops in
      ( observations,
        List.length (Dcache_util.Profiler.hot (Kernel.hot kernel)),
        Trace.recorded () ))

let profiling_transparency_test seed =
  Alcotest.test_case
    (Printf.sprintf "armed profiling is invisible to applications [seed %d]" seed)
    `Quick
    (fun () ->
      let ops = deep_churn_ops seed in
      let plain = run_trace Config.optimized ops in
      let armed, hot_slots, stamps = run_trace_armed Config.optimized ops in
      let rec first_diff i ops_left = function
        | [], [] -> ()
        | a :: rest_a, b :: rest_b ->
          let op, ops_rest =
            match ops_left with o :: r -> (pp_op o, r) | [] -> ("?", [])
          in
          if a <> b then
            Alcotest.failf "op %d (%s):\n  disarmed: %s\n  armed: %s" i op a b
          else first_diff (i + 1) ops_rest (rest_a, rest_b)
        | _ -> Alcotest.fail "trace length mismatch"
      in
      first_diff 0 ops (plain, armed);
      Alcotest.(check bool) "the sketch saw the workload" true (hot_slots > 0);
      Alcotest.(check bool) "the ring saw the workload" true (stamps > 0))

let profiling_transparency_property =
  QCheck.Test.make ~name:"armed profiling never changes syscall results" ~count:75
    ops_arbitrary
    (fun ops ->
      let plain = run_trace Config.optimized ops in
      let armed, _, _ = run_trace_armed Config.optimized ops in
      plain = armed)

(* --- batched submission equivalence (§3.9) ---

   A batch of N mixed probes (stat / lstat / access) drained through the
   vectored SQ/CQ front-end must return exactly the results of the same
   ops issued sequentially at the same point — under rename / chmod /
   unlink / create churn between rounds, in both orders (batch first, so
   its grouped phase-2 populates are observed by the sequential pass, and
   sequential first, so the batch runs all-warm). *)

module Batch = Dcache_syscalls.Batch

type probe = PStat of string | PLstat of string | PAccess of string

let pp_probe = function
  | PStat p -> "bstat " ^ p
  | PLstat p -> "blstat " ^ p
  | PAccess p -> "baccess " ^ p

let probe_sequential p = function
  | PStat path -> obs "stat" (Result.map obs_of_attr (S.stat p path))
  | PLstat path -> obs "lstat" (Result.map obs_of_attr (S.lstat p path))
  | PAccess path ->
    obs "access" (Result.map (fun () -> "") (S.access p path Access.may_read))

let probe_push ring = function
  | PStat path -> ignore (Batch.push_stat ring path)
  | PLstat path -> ignore (Batch.push_lstat ring path)
  | PAccess path -> ignore (Batch.push_access ring path Access.may_read)

let probe_obs ring k pr =
  let name = match pr with PStat _ -> "stat" | PLstat _ -> "lstat" | PAccess _ -> "access" in
  if Batch.ok ring k then
    let body = match pr with PAccess _ -> "" | _ -> obs_of_attr (Batch.attr ring k) in
    name ^ ":ok:" ^ body
  else name ^ ":" ^ Errno.to_string (Batch.errno ring k)

let batch_equiv_churn_test seed =
  Alcotest.test_case
    (Printf.sprintf "batched == sequential under churn [seed %d]" seed) `Quick
    (fun () ->
      let rng = Random.State.make [| seed |] in
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let p = Proc.spawn kernel in
      let dirs = [| "/ba"; "/bb"; "/bc" |] in
      let req what = function
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)
      in
      Array.iter (fun d -> req "mkdir" (S.mkdir p d)) dirs;
      Array.iter
        (fun d ->
          for i = 0 to 11 do
            req "file" (S.write_file p (Printf.sprintf "%s/f%d" d i) "x")
          done)
        dirs;
      req "symlink" (S.symlink p ~target:"/ba/f0" "/ba/ln");
      let n = 32 in
      let ring = Batch.create ~cap:n p in
      let random_path () =
        let d = dirs.(Random.State.int rng 3) in
        match Random.State.int rng 5 with
        | 0 -> d
        | 1 | 2 -> Printf.sprintf "%s/f%d" d (Random.State.int rng 14)
        | 3 -> Printf.sprintf "%s/nope%d" d (Random.State.int rng 4)
        | _ -> "/ba/ln"
      in
      let random_probe () =
        let path = random_path () in
        match Random.State.int rng 3 with
        | 0 -> PStat path
        | 1 -> PLstat path
        | _ -> PAccess path
      in
      for round = 0 to 19 do
        (match Random.State.int rng 4 with
        | 0 ->
          let d = dirs.(Random.State.int rng 3) in
          let i = Random.State.int rng 14 in
          ignore (S.rename p (Printf.sprintf "%s/f%d" d i) (Printf.sprintf "%s/g%d" d i))
        | 1 ->
          ignore
            (S.chmod p
               dirs.(Random.State.int rng 3)
               [| 0o755; 0o700; 0o500 |].(Random.State.int rng 3))
        | 2 ->
          ignore
            (S.unlink p
               (Printf.sprintf "%s/f%d" dirs.(Random.State.int rng 3)
                  (Random.State.int rng 14)))
        | _ ->
          ignore
            (S.write_file p
               (Printf.sprintf "%s/f%d" dirs.(Random.State.int rng 3)
                  (Random.State.int rng 14))
               "y"));
        let probes = Array.init n (fun _ -> random_probe ()) in
        Batch.reset ring;
        Array.iter (probe_push ring) probes;
        let batch_first = round land 1 = 0 in
        let batched, sequential =
          if batch_first then begin
            Batch.submit ring;
            let b = Array.mapi (fun k pr -> probe_obs ring k pr) probes in
            (b, Array.map (probe_sequential p) probes)
          end
          else begin
            let s = Array.map (probe_sequential p) probes in
            Batch.submit ring;
            (Array.mapi (fun k pr -> probe_obs ring k pr) probes, s)
          end
        in
        Array.iteri
          (fun k pr ->
            if batched.(k) <> sequential.(k) then
              Alcotest.failf "round %d probe %d (%s, %s):\n  batched: %s\n  sequential: %s"
                round k (pp_probe pr)
                (if batch_first then "batch first" else "sequential first")
                batched.(k) sequential.(k))
          probes
      done;
      Alcotest.(check bool) "batch submissions recorded" true
        (counter kernel "batch_submit" > 0);
      Alcotest.(check bool) "misses deferred to phase 2" true
        (counter kernel "fastpath_batch_deferred" > 0))

let probe_gen =
  QCheck.Gen.(
    let* path = path_gen in
    let* k = int_range 0 2 in
    return (match k with 0 -> PStat path | 1 -> PLstat path | _ -> PAccess path))

let batch_property =
  QCheck.Test.make ~name:"batched probes match sequential probes after any trace"
    ~count:100
    (QCheck.make
       ~print:(fun (ops, probes) ->
         String.concat "; " (List.map pp_op ops)
         ^ " | "
         ^ String.concat "; " (List.map pp_probe probes))
       QCheck.Gen.(
         pair (list_size (int_range 1 40) op_gen) (list_size (int_range 1 40) probe_gen)))
    (fun (ops, probes) ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      let probes = Array.of_list probes in
      let ring = Batch.create ~cap:(Array.length probes) root_p in
      Array.iter (probe_push ring) probes;
      Batch.submit ring;
      let batched = Array.mapi (fun k pr -> probe_obs ring k pr) probes in
      let sequential = Array.map (probe_sequential root_p) probes in
      if batched <> sequential then begin
        let k = ref 0 in
        Array.iteri (fun i (b : string) -> if b <> sequential.(i) && !k = 0 then k := i + 1) batched;
        let i = max 0 (!k - 1) in
        QCheck.Test.fail_reportf "probe %d (%s):\n  batched: %s\n  sequential: %s" i
          (pp_probe probes.(i)) batched.(i) sequential.(i)
      end;
      true)

(* --- cache-fed readdir equivalence (§5.1) ---

   The promoted DIR_COMPLETE listing, the lockless scratch fill and the
   batched readdir all claim to return exactly what the backend holds.
   Check all four views of every directory against the file system's own
   [readdir] — the ground truth the cache is supposed to mirror — under
   create / unlink / rename churn, and require the optimized run to have
   actually served listings warm (else the test is vacuous). *)

let norm_dirent name ino kind =
  Printf.sprintf "%s/%d/%c" name ino (File_kind.to_char kind)

let norm_listing l = String.concat "," (List.sort compare l)

(* Ground truth straight from the backend, bypassing every cache layer. *)
let backend_listing fs p path =
  match S.stat p path with
  | Error e -> Alcotest.failf "backend stat %s: %s" path (Errno.to_string e)
  | Ok a -> (
    match fs.Dcache_fs.Fs_intf.readdir a.Attr.ino with
    | Error e -> Alcotest.failf "backend readdir %s: %s" path (Errno.to_string e)
    | Ok entries ->
      norm_listing
        (List.map
           (fun e ->
             norm_dirent e.Dcache_fs.Fs_intf.name e.Dcache_fs.Fs_intf.ino
               e.Dcache_fs.Fs_intf.kind)
           entries))

(* The chunked stream: open, drain getdents three entries at a time, close. *)
let getdents_listing p path =
  let fail what e = Alcotest.failf "%s %s: %s" what path (Errno.to_string e) in
  match S.openf p path [ Proc.O_RDONLY; Proc.O_DIRECTORY ] with
  | Error e -> fail "open" e
  | Ok fd ->
    let rec drain acc =
      match S.getdents p fd 3 with
      | Error e -> fail "getdents" e
      | Ok [] -> acc
      | Ok chunk ->
        drain
          (List.rev_append
             (List.map
                (fun e ->
                  norm_dirent e.Dcache_fs.Fs_intf.name e.Dcache_fs.Fs_intf.ino
                    e.Dcache_fs.Fs_intf.kind)
                chunk)
             acc)
    in
    let r = norm_listing (drain []) in
    ignore (S.close p fd);
    r

(* The scratch fill: open, fill the per-process dirent arrays, read them
   back out. *)
let scratch_listing p path =
  match S.openf p path [ Proc.O_RDONLY; Proc.O_DIRECTORY ] with
  | Error e -> Alcotest.failf "open %s: %s" path (Errno.to_string e)
  | Ok fd ->
    let r =
      match S.readdir_fill p fd with
      | n ->
        let ds = p.Proc.dirents in
        let rec go i acc =
          if i >= n then acc
          else
            go (i + 1)
              (norm_dirent ds.Proc.ds_names.(i) ds.Proc.ds_inos.(i) ds.Proc.ds_kinds.(i)
              :: acc)
        in
        norm_listing (go 0 [])
      | exception S.Readdir_errno e ->
        Alcotest.failf "readdir_fill %s: %s" path (Errno.to_string e)
    in
    ignore (S.close p fd);
    r

let batch_listing ring k =
  if not (Batch.ok ring k) then
    Alcotest.failf "batch readdir slot %d: %s" k (Errno.to_string (Batch.errno ring k));
  norm_listing
    (List.init (Batch.dir_len ring k) (fun j ->
         norm_dirent (Batch.dir_name ring k j) (Batch.dir_ino ring k j)
           (Batch.dir_kind ring k j)))

let readdir_equiv_churn_test seed =
  Alcotest.test_case
    (Printf.sprintf "cache-fed readdir == backend listing under churn [seed %d]" seed)
    `Quick
    (fun () ->
      let rng = Random.State.make [| seed |] in
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let p = Proc.spawn kernel in
      let dirs = [| "/ra"; "/rb"; "/rc" |] in
      let req what = function
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)
      in
      Array.iter (fun d -> req "mkdir" (S.mkdir p d)) dirs;
      Array.iter
        (fun d ->
          for i = 0 to 7 do
            req "seed" (S.write_file p (Printf.sprintf "%s/f%d" d i) "x")
          done)
        dirs;
      let ring = Batch.create ~cap:(Array.length dirs) p in
      for round = 0 to 39 do
        (* Halfway through, drop the whole cache: mkdir-born directories are
           complete from birth, so without this the fs-fed promotion path
           (readdir_from_fs -> promote) would never run. *)
        if round = 20 then Kernel.drop_caches kernel;
        (* One mutation per round; renames move entries across directories
           too, so both sides' generations churn. *)
        let d = dirs.(Random.State.int rng 3) in
        let d' = dirs.(Random.State.int rng 3) in
        let i = Random.State.int rng 12 in
        (match Random.State.int rng 5 with
        | 0 -> ignore (S.write_file p (Printf.sprintf "%s/f%d" d i) "y")
        | 1 -> ignore (S.unlink p (Printf.sprintf "%s/f%d" d i))
        | 2 ->
          ignore (S.rename p (Printf.sprintf "%s/f%d" d i) (Printf.sprintf "%s/g%d" d' i))
        | 3 -> ignore (S.mkdir p (Printf.sprintf "%s/sub%d" d (i land 3)))
        | _ ->
          (* create over a (possibly) cached negative: the shortcut path *)
          ignore (S.write_file p (Printf.sprintf "%s/n%d" d i) "z"));
        Array.iter
          (fun dir ->
            let truth = backend_listing fs p dir in
            Alcotest.(check string)
              (Printf.sprintf "round %d: getdents of %s" round dir)
              truth (getdents_listing p dir);
            Alcotest.(check string)
              (Printf.sprintf "round %d: scratch fill of %s" round dir)
              truth (scratch_listing p dir);
            (* twice: the second fill is the warm lockless path *)
            Alcotest.(check string)
              (Printf.sprintf "round %d: warm scratch fill of %s" round dir)
              truth (scratch_listing p dir))
          dirs;
        Batch.reset ring;
        Array.iter (fun dir -> ignore (Batch.push_readdir ring dir)) dirs;
        Batch.submit ring;
        Array.iteri
          (fun k dir ->
            Alcotest.(check string)
              (Printf.sprintf "round %d: batched readdir of %s" round dir)
              (backend_listing fs p dir) (batch_listing ring k))
          dirs
      done;
      Alcotest.(check bool) "listings were promoted into the cache" true
        (counter kernel "readdir_promoted" > 0);
      Alcotest.(check bool) "warm fills took the lockless path" true
        (counter kernel "readdir_scratch_warm" > 0);
      Alcotest.(check bool) "cache served listings" true
        (counter kernel "readdir_scratch_warm" + counter kernel "readdir_from_cache" > 0);
      match Dcache_vfs.Dcache.self_check (Kernel.dcache kernel) with
      | [] -> ()
      | problems ->
        Alcotest.failf "invariants violated:\n%s" (String.concat "\n" problems))

let rec op_paths = function
  | AsUser op -> op_paths op
  | Mkdir p | Unlink p | Rmdir p | Stat p | Lstat p | Read p | Readdir p | Chdir p
  | Access p ->
    [ p ]
  | Create (p, _) | Chmod (p, _) | Truncate (p, _) -> [ p ]
  | Rename (a, b) | Link (a, b) -> [ a; b ]
  | Symlink (_, p) -> [ p ]
  | Mkdirat (d, p) | Unlinkat (d, p) -> [ d; at_path d p ]
  | Getcwd -> []

let readdir_equiv_property =
  QCheck.Test.make ~name:"cache-fed readdir matches the backend after any trace"
    ~count:100 ops_arbitrary
    (fun ops ->
      let fs = Dcache_fs.Ramfs.create () in
      let kernel = Kernel.create ~config:Config.optimized ~root_fs:fs () in
      let root_p = Proc.spawn kernel in
      let user_p = Proc.spawn ~cred:(Cred.make ~uid:1000 ~gid:1000 ()) kernel in
      ignore (List.map (fun op -> run_op root_p user_p op) ops);
      (* Reset any chdir the trace performed so relative candidate paths
         resolve consistently across the three views. *)
      (match S.chdir root_p "/" with Ok () -> () | Error _ -> ());
      List.iter
        (fun path ->
          match S.stat root_p path with
          | Ok a when a.Attr.kind = File_kind.Directory ->
            let truth = backend_listing fs root_p path in
            let g = getdents_listing root_p path in
            let s1 = scratch_listing root_p path in
            let s2 = scratch_listing root_p path in
            if g <> truth || s1 <> truth || s2 <> truth then
              QCheck.Test.fail_reportf
                "dir %s:\n  backend:  %s\n  getdents: %s\n  scratch:  %s\n  warm:     %s"
                path truth g s1 s2
          | _ -> ())
        ("/" :: List.concat_map op_paths ops);
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest (equivalence_test "optimized" Config.optimized);
    QCheck_alcotest.to_alcotest
      (equivalence_test "optimized(completeness, deep negatives, aliases off)"
         {
           Config.optimized with
           Config.dir_completeness = false;
           deep_negative = false;
           symlink_aliases = false;
         });
    QCheck_alcotest.to_alcotest
      (equivalence_test "optimized(lexical dot-dot)"
         { Config.optimized with Config.dotdot = Config.Dotdot_lexical });
    QCheck_alcotest.to_alcotest
      (equivalence_test "fastpath-only" { Config.baseline with Config.fastpath = true });
    QCheck_alcotest.to_alcotest
      (equivalence_test "tiny-cache eviction"
         { Config.optimized with Config.max_dentries = 16 });
    QCheck_alcotest.to_alcotest idempotence_test;
    prefix_resume_churn_test 1;
    prefix_resume_churn_test 1337;
    prefix_resume_churn_test 9001;
    revocation_test;
    absent_name_test;
    scripted_traces_test;
    profiling_transparency_test 1;
    profiling_transparency_test 1337;
    profiling_transparency_test 9001;
    QCheck_alcotest.to_alcotest profiling_transparency_property;
    batch_equiv_churn_test 1;
    batch_equiv_churn_test 1337;
    batch_equiv_churn_test 9001;
    QCheck_alcotest.to_alcotest batch_property;
    readdir_equiv_churn_test 1;
    readdir_equiv_churn_test 1337;
    readdir_equiv_churn_test 9001;
    QCheck_alcotest.to_alcotest readdir_equiv_property;
    QCheck_alcotest.to_alcotest (invariants_test "dcache invariants [baseline]" Config.baseline);
    QCheck_alcotest.to_alcotest (invariants_test "dcache invariants [optimized]" Config.optimized);
    QCheck_alcotest.to_alcotest
      (invariants_test "dcache invariants [tiny cache]"
         { Config.optimized with Config.max_dentries = 12 });
    refill_churn_test 1;
    refill_churn_test 1337;
    refill_churn_test 9001;
    QCheck_alcotest.to_alcotest (equivalence_test "optimized(16-entry PCC)" tiny_pcc);
    QCheck_alcotest.to_alcotest (invariants_test "dcache invariants [16-entry PCC]" tiny_pcc);
    errno_precedence_test;
  ]

(* Tests for credentials (COW/commit) and the LSM framework. *)

open Dcache_types
open Kit
module Cred = Dcache_cred.Cred
module Lsm = Dcache_cred.Lsm
module Maclabel = Dcache_cred.Maclabel

let attr ?(mode = 0o644) ?(uid = 0) ?(gid = 0) ?label ?(kind = File_kind.Regular) () =
  Attr.make ~mode ~uid ~gid ?label ~ino:1 ~kind ()

let test_commit_unchanged_keeps_identity () =
  let c = Cred.make ~uid:5 ~gid:5 () in
  let b = Cred.prepare c in
  Cred.Builder.set_uid b 5 (* no actual change *);
  let c' = Cred.Builder.commit b in
  Alcotest.(check int) "same id" (Cred.id c) (Cred.id c');
  Alcotest.(check bool) "same object" true (c == c')

let test_commit_changed_new_identity () =
  let c = Cred.make ~uid:5 ~gid:5 () in
  let b = Cred.prepare c in
  Cred.Builder.set_uid b 6;
  let c' = Cred.Builder.commit b in
  Alcotest.(check bool) "new object" false (c == c');
  Alcotest.(check bool) "new id" true (Cred.id c <> Cred.id c');
  Alcotest.(check int) "uid applied" 6 (Cred.uid c');
  Alcotest.(check int) "original untouched" 5 (Cred.uid c)

let test_groups_normalized () =
  let c = Cred.make ~uid:1 ~gid:1 ~groups:[ 3; 1; 3; 2 ] () in
  Alcotest.(check (list int)) "sorted unique" [ 1; 2; 3 ] (Cred.groups c);
  Alcotest.(check bool) "in_group primary" true (Cred.in_group c 1);
  Alcotest.(check bool) "in_group supplementary" true (Cred.in_group c 3);
  Alcotest.(check bool) "not in group" false (Cred.in_group c 9)

type Cred.slot += Test_slot of int

let test_slots () =
  let c = Cred.make ~uid:1 ~gid:1 () in
  Alcotest.(check (option int)) "empty" None
    (Cred.find_slot c (function Test_slot v -> Some v | _ -> None));
  Cred.add_slot c (Test_slot 42);
  Alcotest.(check (option int)) "found" (Some 42)
    (Cred.find_slot c (function Test_slot v -> Some v | _ -> None))

let owner = Cred.make ~uid:100 ~gid:100 ()
let groupie = Cred.make ~uid:101 ~gid:100 ()
let stranger = Cred.make ~uid:102 ~gid:102 ()
let root = Cred.make ~uid:0 ~gid:0 ()

let test_dac_classes () =
  let a = attr ~mode:0o640 ~uid:100 ~gid:100 () in
  Alcotest.(check bool) "owner rw" true
    (Lsm.dac_permission owner a (Access.union Access.may_read Access.may_write));
  Alcotest.(check bool) "group r" true (Lsm.dac_permission groupie a Access.may_read);
  Alcotest.(check bool) "group not w" false (Lsm.dac_permission groupie a Access.may_write);
  Alcotest.(check bool) "other nothing" false (Lsm.dac_permission stranger a Access.may_read)

let test_dac_owner_class_exclusive () =
  (* The owner is checked against the owner class only: mode 0o077 denies
     the owner even though group/other would allow. *)
  let a = attr ~mode:0o077 ~uid:100 ~gid:100 () in
  Alcotest.(check bool) "owner denied" false (Lsm.dac_permission owner a Access.may_read);
  Alcotest.(check bool) "stranger allowed" true (Lsm.dac_permission stranger a Access.may_read)

let test_dac_root_override () =
  let a = attr ~mode:0o000 ~uid:100 () in
  Alcotest.(check bool) "root rw anything" true
    (Lsm.dac_permission root a (Access.union Access.may_read Access.may_write));
  Alcotest.(check bool) "root cannot exec non-x file" false
    (Lsm.dac_permission root a Access.may_exec);
  let dir = attr ~mode:0o000 ~uid:100 ~kind:File_kind.Directory () in
  Alcotest.(check bool) "root searches any dir" true (Lsm.dac_permission root dir Access.may_exec);
  let xfile = attr ~mode:0o100 ~uid:100 () in
  Alcotest.(check bool) "root exec with any x bit" true
    (Lsm.dac_permission root xfile Access.may_exec)

let test_registry_order_and_veto () =
  let registry = Lsm.create () in
  let trace = ref [] in
  let make name verdict =
    {
      Lsm.name;
      inode_permission =
        (fun _ _ _ ->
          trace := name :: !trace;
          verdict);
    }
  in
  Lsm.register registry (make "first" true);
  Lsm.register registry (make "second" false);
  Lsm.register registry (make "third" true);
  let a = attr ~mode:0o777 () in
  Alcotest.(check bool) "vetoed" false (Lsm.permission registry owner a Access.may_read);
  (* Evaluation is in registration order and short-circuits on the veto. *)
  Alcotest.(check (list string)) "order" [ "second"; "first" ] !trace;
  Alcotest.(check (list string)) "names" [ "first"; "second"; "third" ] (Lsm.names registry)

let test_lsm_cannot_grant () =
  (* A module cannot override a DAC denial: DAC runs first. *)
  let registry = Lsm.create () in
  Lsm.register registry { Lsm.name = "permissive"; inode_permission = (fun _ _ _ -> true) };
  let a = attr ~mode:0o000 ~uid:100 () in
  Alcotest.(check bool) "still denied" false (Lsm.permission registry stranger a Access.may_read)

let test_maclabel_policy () =
  let rules =
    [ { Maclabel.domain = "mail_t"; label = "spool"; allow = Access.may_read } ]
  in
  let hooks = Maclabel.hooks ~rules in
  let mail = Cred.make ~uid:8 ~gid:8 ~label:"mail_t" () in
  let web = Cred.make ~uid:33 ~gid:33 ~label:"web_t" () in
  let unconfined = Cred.make ~uid:1 ~gid:1 () in
  let labeled = attr ~mode:0o777 ~label:"spool" () in
  let unlabeled = attr ~mode:0o777 () in
  let check c a m = hooks.Lsm.inode_permission c a m in
  Alcotest.(check bool) "mail reads spool" true (check mail labeled Access.may_read);
  Alcotest.(check bool) "mail cannot write spool" false (check mail labeled Access.may_write);
  Alcotest.(check bool) "web denied" false (check web labeled Access.may_read);
  Alcotest.(check bool) "unconfined ok" true (check unconfined labeled Access.may_write);
  Alcotest.(check bool) "unlabeled ok" true (check web unlabeled Access.may_write)

let test_counting_wrapper () =
  let hooks = { Lsm.name = "h"; inode_permission = (fun _ _ _ -> true) } in
  let wrapped, calls = Lsm.counting hooks in
  let a = attr () in
  ignore (wrapped.Lsm.inode_permission owner a Access.may_read);
  ignore (wrapped.Lsm.inode_permission owner a Access.may_read);
  Alcotest.(check int) "counted" 2 (calls ())

(* The paper's §2.3 manageability anomaly, in the dangerous direction:
   Alice once made a subdirectory world-readable by hand; later she locks
   her home directory down.  Windows' propagation heuristic skips
   manually-modified children, so there the subdirectory stays readable.
   POSIX prefix semantics, and so our kernel, deny the same access:
   reaching the subdirectory needs search permission on home. *)
let test_locked_parent_denies_manual_child () =
  let kernel, root_p = ram_kernel ~config:Config.optimized () in
  get "tree" (S.mkdir_p root_p "/home/alice/public");
  get "own" (S.chown root_p "/home/alice" ~uid:1000 ~gid:1000);
  get "own2" (S.chown root_p "/home/alice/public" ~uid:1000 ~gid:1000);
  get "manual chmod" (S.chmod root_p "/home/alice/public" 0o755);
  get "lockdown" (S.chmod root_p "/home/alice" 0o700);
  let bob_p = Dcache_syscalls.Proc.spawn ~cred:(bob ()) kernel in
  expect_err Errno.EACCES "POSIX prefix semantics deny"
    (S.stat bob_p "/home/alice/public")

let suite =
  [
    Alcotest.test_case "commit unchanged keeps identity" `Quick test_commit_unchanged_keeps_identity;
    Alcotest.test_case "commit changed gets new identity" `Quick test_commit_changed_new_identity;
    Alcotest.test_case "groups normalized" `Quick test_groups_normalized;
    Alcotest.test_case "extensible slots" `Quick test_slots;
    Alcotest.test_case "dac classes" `Quick test_dac_classes;
    Alcotest.test_case "dac owner class exclusive" `Quick test_dac_owner_class_exclusive;
    Alcotest.test_case "dac root override" `Quick test_dac_root_override;
    Alcotest.test_case "registry order and veto" `Quick test_registry_order_and_veto;
    Alcotest.test_case "lsm cannot grant" `Quick test_lsm_cannot_grant;
    Alcotest.test_case "maclabel policy" `Quick test_maclabel_policy;
    Alcotest.test_case "counting wrapper" `Quick test_counting_wrapper;
    Alcotest.test_case "locked-down parent denies a manually opened child" `Quick
      test_locked_parent_denies_manual_child;
  ]

open Dcache_vfs.Types
module Cred = Dcache_cred.Cred
module Dcache = Dcache_vfs.Dcache
module Inttbl = Dcache_util.Inttbl

type open_flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT
  | O_EXCL
  | O_TRUNC
  | O_APPEND
  | O_NOFOLLOW
  | O_DIRECTORY

(* Preallocated per-process dirent result buffer (§5.1): the cache-fed
   readdir stores each entry as three parallel-array writes (name pointer,
   ino, kind), so a warm DIR_COMPLETE listing allocates nothing after the
   first fill.  Growth doubles outside the warm path; contents are valid
   until the next scratch-filling call on the same process. *)
type dirent_scratch = {
  mutable ds_names : string array;
  mutable ds_inos : int array;
  mutable ds_kinds : Dcache_types.File_kind.t array;
  mutable ds_n : int;
}

type fd = {
  fd_num : int;
  fd_ref : path_ref;
  fd_inode : Dcache_vfs.Inode.t;
  fd_readable : bool;
  fd_writable : bool;
  fd_append : bool;
  mutable fd_pos : int;
  mutable fd_dir : Dcache_fs.Fs_intf.dirent array option;
      (* a directory stream's listing snapshot; [fd_pos] is its cursor *)
}

type t = {
  kernel : Kernel.t;
  mutable cred : Cred.t;
  mutable root : path_ref;
  mutable cwd : path_ref;
  mutable ns : namespace;
  fds : fd Inttbl.t;
  mutable next_fd : int;
  dirents : dirent_scratch;
}

let scratch_initial = 64

let make_scratch () =
  {
    ds_names = Array.make scratch_initial "";
    ds_inos = Array.make scratch_initial 0;
    ds_kinds = Array.make scratch_initial Dcache_types.File_kind.Regular;
    ds_n = 0;
  }

let scratch_cap ds = Array.length ds.ds_names

(* Double the scratch to hold at least [want] entries.  Never called on the
   warm path: the lockless listing bails to the locked fill on overflow,
   and the locked fill grows before copying. *)
let scratch_grow ds want =
  let cap = scratch_cap ds in
  if want > cap then begin
    let cap' = ref (cap * 2) in
    while !cap' < want do
      cap' := !cap' * 2
    done;
    let names = Array.make !cap' "" in
    let inos = Array.make !cap' 0 in
    let kinds = Array.make !cap' Dcache_types.File_kind.Regular in
    Array.blit ds.ds_names 0 names 0 ds.ds_n;
    Array.blit ds.ds_inos 0 inos 0 ds.ds_n;
    Array.blit ds.ds_kinds 0 kinds 0 ds.ds_n;
    ds.ds_names <- names;
    ds.ds_inos <- inos;
    ds.ds_kinds <- kinds
  end

(* One entry, three stores — the warm readdir's only writes. *)
let[@inline] scratch_set ds i name ino kind =
  Array.unsafe_set ds.ds_names i name;
  Array.unsafe_set ds.ds_inos i ino;
  Array.unsafe_set ds.ds_kinds i kind

let spawn ?cred kernel =
  let cred = match cred with Some c -> c | None -> Kernel.root_cred kernel in
  let root = Kernel.root kernel in
  Dcache.dget root.dentry;
  Dcache.dget root.dentry;
  (* two pins: one for root, one for cwd *)
  {
    kernel;
    cred;
    root;
    cwd = root;
    ns = Kernel.init_ns kernel;
    fds = Inttbl.create 16;
    next_fd = 3;
    dirents = make_scratch ();
  }

let fork t =
  Dcache.dget t.root.dentry;
  Dcache.dget t.cwd.dentry;
  {
    kernel = t.kernel;
    cred = t.cred;
    root = t.root;
    cwd = t.cwd;
    ns = t.ns;
    fds = Inttbl.create 16;
    next_fd = 3;
    dirents = make_scratch ();
  }

let walk_ctx t =
  {
    Dcache_vfs.Walk.cred = t.cred;
    root = t.root;
    cwd = t.cwd;
    ns = t.ns;
    registry = Kernel.registry t.kernel;
  }

let set_cred t update =
  let builder = Cred.prepare t.cred in
  update builder;
  t.cred <- Cred.Builder.commit builder

let install_fd t ~fd =
  let num = t.next_fd in
  t.next_fd <- num + 1;
  let fd = fd num in
  Inttbl.add t.fds num fd;
  fd

let find_fd t num =
  match Inttbl.find_opt t.fds num with
  | Some fd -> Ok fd
  | None -> Error Dcache_types.Errno.EBADF

(* Allocation-free variant for the scratch readdir's warm path: [find_fd]
   boxes a result per call.  @raise Not_found on a bad descriptor. *)
let find_fd_exn t num = Inttbl.find t.fds num

let remove_fd t num =
  match Inttbl.find_opt t.fds num with
  | Some fd ->
    Inttbl.remove t.fds num;
    Ok fd
  | None -> Error Dcache_types.Errno.EBADF

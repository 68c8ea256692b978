(** Processes: credentials, root/cwd directory references, a mount
    namespace, and an open-file table. *)

open Dcache_vfs.Types

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

(** Preallocated per-process dirent result buffer (§5.1): the cache-fed
    readdir stores each entry as three parallel-array writes (name, ino,
    kind), so a warm DIR_COMPLETE listing allocates nothing after the
    first fill.  [ds_n] entries are valid until the next scratch-filling
    call on the same process. *)
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
      (** A directory stream's listing snapshot for getdents: a copy of the
          dirent scratch taken on the stream's first call, read from
          [fd_pos].  A rewind to 0 drops it, so the next call re-lists. *)
}

type t = {
  kernel : Kernel.t;
  mutable cred : Dcache_cred.Cred.t;
  mutable root : path_ref;
  mutable cwd : path_ref;
  mutable ns : namespace;
  fds : fd Dcache_util.Inttbl.t;
  mutable next_fd : int;
  dirents : dirent_scratch;
}

val scratch_cap : dirent_scratch -> int
(** Current capacity (slots) of the scratch arrays. *)

val scratch_grow : dirent_scratch -> int -> unit
(** Ensure capacity for at least the given number of entries (doubling).
    Allocates; never called on the warm path — the lockless listing bails
    to the locked fill on overflow, and the locked fill grows first. *)

val scratch_set : dirent_scratch -> int -> string -> int -> Dcache_types.File_kind.t -> unit
(** [scratch_set ds i name ino kind] stores entry [i] — three unchecked
    array stores, the warm readdir's only writes.  [i] must be below
    {!scratch_cap}. *)

val spawn : ?cred:Dcache_cred.Cred.t -> Kernel.t -> t
(** A fresh process at the kernel's root with the given credentials
    (default: {!Kernel.root_cred}, shared by the kernel's processes). *)

val fork : t -> t
(** Clone cwd/root/namespace/credentials (sharing the credential object and
    hence the PCC, like a shell forking children §4.1).  The file table is
    not inherited. *)

val walk_ctx : t -> Dcache_vfs.Walk.ctx

val set_cred : t -> (Dcache_cred.Cred.Builder.t -> unit) -> unit
(** Apply a credential change through the prepare/commit protocol; an
    update that changes nothing keeps the original credential (and its
    PCC) alive. *)

val install_fd : t -> fd:(int -> fd) -> fd
val find_fd : t -> int -> (fd, Dcache_types.Errno.t) result

val find_fd_exn : t -> int -> fd
(** Allocation-free variant of {!find_fd} for the scratch readdir's warm
    path ([find_fd] boxes a result per call).
    @raise Not_found on a bad descriptor. *)

val remove_fd : t -> int -> (fd, Dcache_types.Errno.t) result

(* State encoding: -1 = writer holds the lock; n >= 0 = n active readers.
   Writers first win [writer_pending] among themselves via the mutex, then
   spin waiting for readers to drain.  Readers back off while a writer is
   pending so writers cannot starve. *)

type t = {
  state : int Atomic.t;
  writer_pending : bool Atomic.t;
  writers : Mutex.t;
  (* Id of the domain holding the write side, -1 when none.  Only the
     holder writes its own id (after acquiring, cleared before releasing),
     so a domain reads its own id here exactly while it holds the lock. *)
  mutable owner : int;
}

let create () =
  {
    state = Atomic.make 0;
    writer_pending = Atomic.make false;
    writers = Mutex.create ();
    owner = -1;
  }

(* Acquisition accounting, used by test/t_alloc.ml and the churn benchmark
   to prove the lockless warm fastpath takes zero rwlock acquisitions.
   Per-domain (DLS) rather than module-global: a reader domain's count is
   exact even while writer domains are hammering the lock from the sharded
   mutation path — each domain observes only its own acquisitions, which
   is precisely what the "this domain never locked" oracle needs.  The hot
   path pays one DLS load and one non-atomic increment of a domain-private
   record. *)
type acq = { mutable reads : int; mutable writes : int }

let acq_key = Domain.DLS.new_key (fun () -> { reads = 0; writes = 0 })

let acquisition_counts () =
  let a = Domain.DLS.get acq_key in
  (a.reads, a.writes)

let reset_acquisition_counts () =
  let a = Domain.DLS.get acq_key in
  a.reads <- 0;
  a.writes <- 0

(* Spin briefly, then yield the processor: on oversubscribed (or single-)
   core hosts a pure spin burns the whole quantum waiting for a descheduled
   lock holder. *)
let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.0000005

(* Top-level, not a local [rec] capturing [t]: without flambda a capturing
   local function allocates its closure on every [read_lock], and the lookup
   fastpath takes this lock once per operation. *)
let rec read_acquire t spins =
  if Atomic.get t.writer_pending then begin
    backoff spins;
    read_acquire t (spins + 1)
  end
  else begin
    let observed = Atomic.get t.state in
    if observed >= 0 && Atomic.compare_and_set t.state observed (observed + 1) then ()
    else begin
      backoff spins;
      read_acquire t (spins + 1)
    end
  end

let read_lock t =
  let a = Domain.DLS.get acq_key in
  a.reads <- a.reads + 1;
  read_acquire t 0

let read_unlock t = ignore (Atomic.fetch_and_add t.state (-1))

let self_id () = (Domain.self () :> int)

(* "Am I in the exclusive side right now?" — true only for the holder, so
   the answer is stable wherever it is asked: another domain's write
   section never makes it true here. *)
let write_held t = t.owner = self_id ()

let write_lock t =
  let a = Domain.DLS.get acq_key in
  a.writes <- a.writes + 1;
  Mutex.lock t.writers;
  Atomic.set t.writer_pending true;
  let rec drain spins =
    if not (Atomic.compare_and_set t.state 0 (-1)) then begin
      backoff spins;
      drain (spins + 1)
    end
  in
  drain 0;
  t.owner <- self_id ()

let write_unlock t =
  t.owner <- -1;
  Atomic.set t.state 0;
  Atomic.set t.writer_pending false;
  Mutex.unlock t.writers

let with_read t f =
  read_lock t;
  match f () with
  | result ->
    read_unlock t;
    result
  | exception e ->
    read_unlock t;
    raise e

let with_write t f =
  write_lock t;
  match f () with
  | result ->
    write_unlock t;
    result
  | exception e ->
    write_unlock t;
    raise e

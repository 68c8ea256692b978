(* A fixed power-of-two table of stripe locks (lock striping, DragonFly
   namecache style): each stripe pairs a mutex with a seqcount so lockless
   readers can record the stripes their probe touched and revalidate them at
   commit time, exactly like the global write seqcount but scoped to the
   hash range a mutation actually disturbed.

   Deadlock discipline: a holder of one stripe may only acquire a second
   through [lock2], which orders by stripe index; everything else takes a
   single stripe at a time.  The seqcount bracket is opened after the mutex
   is won and closed before it is released, so an odd stripe seq always
   means "mutation in flight here".

   Each stripe also carries acquisition / contention counters (atomic, the
   stripes are the multi-writer hot path) surfaced through /proc/dcache. *)

type t = {
  mask : int;
  locks : Mutex.t array;
  seqs : Seqcount.t array;
  acquired : int Atomic.t array;
  contended : int Atomic.t array;
}

let create n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Locktab.create: stripe count must be a positive power of two";
  {
    mask = n - 1;
    locks = Array.init n (fun _ -> Mutex.create ());
    seqs = Array.init n (fun _ -> Seqcount.create ());
    acquired = Array.init n (fun _ -> Atomic.make 0);
    contended = Array.init n (fun _ -> Atomic.make 0);
  }

let size t = t.mask + 1
let index t hash = hash land t.mask

(* The seqcount for stripe [i]: readers snapshot it before probing state
   guarded by the stripe and revalidate before trusting what they read. *)
let seq t i = t.seqs.(i)

let lock t i =
  if not (Mutex.try_lock t.locks.(i)) then begin
    Atomic.incr t.contended.(i);
    Trace.stamp Trace.ev_stripe_contended i;
    Mutex.lock t.locks.(i)
  end;
  Atomic.incr t.acquired.(i);
  Seqcount.write_begin t.seqs.(i)

let unlock t i =
  Seqcount.write_end t.seqs.(i);
  Mutex.unlock t.locks.(i)

(* Two stripes in index order; [i = j] degenerates to a single acquisition
   (a stripe mutex is not recursive). *)
let lock2 t i j =
  if i = j then lock t i
  else if i < j then begin
    lock t i;
    lock t j
  end
  else begin
    lock t j;
    lock t i
  end

let unlock2 t i j =
  if i = j then unlock t i
  else begin
    unlock t i;
    unlock t j
  end

let with_lock2 t i j f =
  lock2 t i j;
  match f () with
  | result ->
    unlock2 t i j;
    result
  | exception e ->
    unlock2 t i j;
    raise e

let with_lock t i f = with_lock2 t i i f

let acquisitions t i = Atomic.get t.acquired.(i)
let contentions t i = Atomic.get t.contended.(i)

let totals t =
  let acq = ref 0 and cont = ref 0 in
  for i = 0 to t.mask do
    acq := !acq + Atomic.get t.acquired.(i);
    cont := !cont + Atomic.get t.contended.(i)
  done;
  (!acq, !cont)

(* One [stripe index acquired contended] line per stripe — /proc fodder. *)
let to_string t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "stripes %d\n" (size t);
  let acq, cont = totals t in
  Printf.bprintf buf "acquired %d\ncontended %d\n" acq cont;
  for i = 0 to t.mask do
    Printf.bprintf buf "stripe %d %d %d\n" i (Atomic.get t.acquired.(i))
      (Atomic.get t.contended.(i))
  done;
  Buffer.contents buf

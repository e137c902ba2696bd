(* A mutex-protected, byte-bounded cache with least-recently-used
   eviction.

   The map lives behind one mutex; values are computed OUTSIDE the lock
   ([find_or_compute] releases it around the thunk), so a slow compile
   or VM run never serializes unrelated lookups.  The price is a benign
   race: two domains missing on the same key both compute, and the
   second insert is dropped in favour of the first — wasted work, never
   an inconsistency (all cached artefacts are deterministic functions of
   their key).

   The hit/miss/eviction counters are [Atomic.t], not plain ints under
   the mutex: the serve daemon reads them from its stats endpoint while
   every executor thread is mutating them, and an atomic read needs no
   lock — telemetry never contends with (or miscounts under) concurrent
   lookups.

   Weights are caller-provided byte estimates.  When an insert pushes
   the total past [budget_bytes], entries are evicted in
   least-recently-used order until the total drops to 3/4 of the budget
   (hysteresis: one oversized round of inserts does not cause an
   eviction per insert). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type 'v entry = {
  value : 'v;
  weight : int;
  mutable stamp : int;  (* last-used tick, under the mutex *)
}

type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, 'v entry) Hashtbl.t;
  budget_bytes : int;
  mutable clock : int;
  mutable bytes : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
}

let create ~budget_bytes =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    budget_bytes = max 0 budget_bytes;
    clock = 0;
    bytes = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* under the mutex *)
let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* under the mutex: drop least-recently-used entries until the byte
   total is at most [target] *)
let evict_to t target =
  if t.bytes > target then begin
    let all =
      Hashtbl.fold (fun k e acc -> (e.stamp, k, e.weight) :: acc) t.table []
    in
    let oldest_first = List.sort compare all in
    List.iter
      (fun (_, k, w) ->
        if t.bytes > target then begin
          Hashtbl.remove t.table k;
          t.bytes <- t.bytes - w;
          Atomic.incr t.evictions
        end)
      oldest_first
  end

(* under the mutex *)
let insert t key value weight =
  if not (Hashtbl.mem t.table key) then begin
    Hashtbl.add t.table key { value; weight; stamp = tick t };
    t.bytes <- t.bytes + weight;
    if t.bytes > t.budget_bytes then evict_to t (t.budget_bytes * 3 / 4)
  end

let find_opt t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          e.stamp <- tick t;
          Atomic.incr t.hits;
          Some e.value
      | None ->
          Atomic.incr t.misses;
          None)

(* [put t key value ~weight]: insert a value computed elsewhere (batch
   executions, disk-cache hits).  Like the tail of [find_or_compute]: a
   concurrent insert of the same key wins and this one is dropped. *)
let put t key value ~weight = locked t (fun () -> insert t key value weight)

(* [find_or_compute t key ~weight compute]: cached value for [key], or
   [compute ()] (run unlocked) inserted with [weight value] bytes. *)
let find_or_compute t key ~weight compute =
  match find_opt t key with
  | Some v -> v
  | None ->
      let v = compute () in
      locked t (fun () -> insert t key v (weight v));
      v

let stats t =
  let entries, bytes =
    locked t (fun () -> (Hashtbl.length t.table, t.bytes))
  in
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    entries;
    bytes;
  }

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.evictions 0

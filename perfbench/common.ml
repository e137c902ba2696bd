(* What every workload receives, and helpers they share. *)

type ctx = {
  seed : int;
  seconds : float;  (** length of the measured window *)
  trace : bool;
}

let now = Perfbench.Span.now

(* Seeded Fisher-Yates permutation of [0, n). *)
let permutation ~seed n =
  let st = Random.State.make [| seed; n |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b

(* Engine session counters summed over several sessions. *)
let add_cache (a : Engine.Session.cache_stats) (b : Engine.Session.cache_stats) =
  {
    Engine.Session.hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    entries = a.entries + b.entries;
    bytes = a.bytes + b.bytes;
  }

let zero_cache = { Engine.Session.hits = 0; misses = 0; evictions = 0; entries = 0; bytes = 0 }

type engine_sum = {
  units : Engine.Session.cache_stats;
  images : Engine.Session.cache_stats;
  observations : Engine.Session.cache_stats;
  key_s : float;
}

let engine_zero = { units = zero_cache; images = zero_cache; observations = zero_cache; key_s = 0. }

let engine_add (e : engine_sum) (s : Engine.Session.stats) =
  {
    units = add_cache e.units s.Engine.Session.units;
    images = add_cache e.images s.Engine.Session.images;
    observations = add_cache e.observations s.Engine.Session.observations;
    key_s = e.key_s +. s.Engine.Session.key_seconds;
  }

let engine_metrics (e : engine_sum) =
  let open Perfbench.Report in
  [
    metric "engine.unit_hit_rate" "ratio" (Engine.Session.hit_rate e.units);
    metric "engine.image_hit_rate" "ratio" (Engine.Session.hit_rate e.images);
    metric "engine.unit_evictions" "count" (float_of_int e.units.evictions);
    metric "engine.obs_hit_rate" "ratio" (Engine.Session.hit_rate e.observations);
    metric "engine.obs_evictions" "count" (float_of_int e.observations.evictions);
    metric "engine.key_s" "s" e.key_s;
  ]

let oracle_zero =
  { Compdiff.Oracle.checks = 0; vm_execs = 0; dedup_saved = 0; escalation_saved = 0 }

(* [check_s] is the time the benchmark's own calls spent in oracle
   checks; [None] where those calls happen inside another layer's call
   and cannot be timed from outside. *)
let oracle_metrics ?check_s (o : Compdiff.Oracle.stats) =
  let open Perfbench.Report in
  (match check_s with Some s -> [ metric "oracle.check_s" "s" s ] | None -> [])
  @ [
    metric "oracle.checks" "count" (float_of_int o.checks);
    metric "oracle.vm_execs" "count" (float_of_int o.vm_execs);
    metric "oracle.execs_per_check" "execs/check"
      (ratio (float_of_int o.vm_execs) (float_of_int o.checks));
    metric "oracle.dedup_saved" "count" (float_of_int o.dedup_saved);
    metric "oracle.escalation_saved" "count" (float_of_int o.escalation_saved);
  ]

(* Reduction counters over finished reductions. *)
let reduce_metrics ~s ~calls ~recompile_s ~recompiles (st : Compdiff.Reduce.stats list) =
  let open Perfbench.Report in
  let checks = sum (fun (r : Compdiff.Reduce.stats) -> r.checks) st in
  let shrunk =
    sum (fun (r : Compdiff.Reduce.stats) -> r.input_before - r.input_after) st
  in
  [
    metric "reduce.s" "s" s;
    metric "reduce.calls" "count" (float_of_int calls);
    metric "reduce.checks" "count" (float_of_int checks);
    metric "reduce.recompile_s" "s" recompile_s;
    metric "reduce.recompiles" "count" (float_of_int recompiles);
    metric "reduce.bytes_ratio" "bytes/check"
      (ratio (float_of_int shrunk) (float_of_int checks));
  ]

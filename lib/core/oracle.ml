(* The CompDiff oracle (Section 3.1).

   A program is compiled once per implementation; [check] runs every
   binary on one input, normalizes the outputs, and compares their
   MurmurHash3 checksums. Any disagreement is a divergence: for programs
   with deterministic output this is a true positive by construction.

   Timeouts follow RQ6: if only some binaries hang, the fuel budget is
   escalated (up to a cap) until the set of hanging binaries stabilizes;
   a residual mixed hang is reported as a divergence, an all-hang as
   agreement.

   Execution strategy (a verdict-preserving liberty with the paper):
   - compilation, linking and plain execution go through an
     {!Engine.Session} (a private caching-disabled one when the caller
     passes none), so shared sessions reuse compiled units, linked
     images and stored observations across oracles;
   - binaries with equal {!Binsig.signature} form equivalence classes;
     one representative per class is linked at oracle creation and
     executed via {!Engine.Session.run} (linked executor with a pooled
     per-class arena), the observation fanned out to every member;
   - the per-class runs of one fuel round go through the shared
     {!Cdutil.Pool} when [jobs > 1];
   - fuel escalation is incremental: only classes whose last observation
     hung are re-run at the higher budget.  This is observationally
     identical to re-running everything because the VM is deterministic
     at a fixed fuel and a terminating run consumes the same fuel under
     any sufficient budget — finished observations (including their
     [fuel_used]) can simply be reused.

   [observe_naive]/[check_naive] keep the sequential, dedup-free
   reference semantics for cross-validation; they bypass the session
   entirely (tree-walking interpreter on the uncached units), so
   comparing [check] against [check_naive] also cross-validates the
   session's cached path against a fresh one. *)

open Cdcompiler

type observation = {
  output : string;          (* normalized stdout *)
  status : Cdvm.Trap.status;
  fuel_used : int;
}

type verdict =
  | Agree of observation
  | Diverge of (string * observation) list
      (* every implementation's observation, in implementation order *)

type stats = {
  checks : int;            (* oracle checks (inputs judged) *)
  vm_execs : int;          (* observations requested from the engine;
                              actual VM executions when the session does
                              not cache (hits replay from the store) *)
  dedup_saved : int;       (* executions avoided by binary dedup *)
  escalation_saved : int;  (* executions avoided by incremental escalation *)
}

type t = {
  profiles : Policy.profile list;   (* what [binaries] were compiled with *)
  binaries : (string * Ir.unit_) list;
  session : Engine.Session.t;
      (* owns linking and plain execution; caching-disabled when the
         creator passed no session of their own *)
  normalize : Normalize.filter;
  base_fuel : int;
  max_fuel : int;
  compare_status : bool;    (* ablation knob: include exit/trap status *)
  jobs : int;
  dedup : bool;
  nbinaries : int;
  class_of : int array;        (* binary index -> class index *)
  class_repr : Ir.unit_ array; (* class index -> representative binary *)
  class_size : int array;      (* class index -> number of members *)
  class_linked : Engine.Session.linked array;
      (* linked once per class through the session (image cache + pooled
         arena + observation store) *)
  c_checks : int Atomic.t;
  c_execs : int Atomic.t;
  c_dedup_saved : int Atomic.t;
  c_escal_saved : int Atomic.t;
}

(* Partition the binaries into behavioral equivalence classes by their
   canonical signature (exact string equality: no hash-collision risk). *)
let build_classes ~dedup (binaries : (string * Ir.unit_) list) =
  let n = List.length binaries in
  let class_of = Array.make n 0 in
  if not dedup then begin
    let repr = Array.of_list (List.map snd binaries) in
    Array.iteri (fun i _ -> class_of.(i) <- i) repr;
    (class_of, repr, Array.make n 1)
  end
  else begin
    let table : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let reprs = ref [] and nclasses = ref 0 in
    List.iteri
      (fun i (_, u) ->
        let key = Binsig.signature u in
        match Hashtbl.find_opt table key with
        | Some ci -> class_of.(i) <- ci
        | None ->
            let ci = !nclasses in
            incr nclasses;
            Hashtbl.add table key ci;
            reprs := u :: !reprs;
            class_of.(i) <- ci)
      binaries;
    let repr = Array.of_list (List.rev !reprs) in
    let size = Array.make (max 1 !nclasses) 0 in
    Array.iter (fun ci -> size.(ci) <- size.(ci) + 1) class_of;
    (class_of, repr, size)
  end

(* oracles created without an explicit session still route linking and
   execution through the engine, just without caching *)
let private_session () = Engine.Session.create ~cache_mb:0 ()

let create ?session ?(profiles = Profiles.all) ?(normalize = Normalize.identity)
    ?(fuel = 200_000) ?(max_fuel = 3_200_000) ?(compare_status = true)
    ?(jobs = Cdutil.Pool.default_jobs ()) ?(dedup = true)
    (tp : Minic.Tast.tprogram) : t =
  let session = match session with Some s -> s | None -> private_session () in
  let binaries = Engine.Session.compile_profiles ~jobs session profiles tp in
  let class_of, class_repr, class_size = build_classes ~dedup binaries in
  (* link each class representative once through the session; every
     execution of the class runs the image (the reference interpreter
     stays on [observe_naive]) *)
  let class_linked = Array.map (Engine.Session.link session) class_repr in
  {
    profiles;
    binaries;
    session;
    normalize;
    base_fuel = fuel;
    max_fuel;
    compare_status;
    jobs;
    dedup;
    nbinaries = List.length binaries;
    class_of;
    class_repr;
    class_size;
    class_linked;
    c_checks = Atomic.make 0;
    c_execs = Atomic.make 0;
    c_dedup_saved = Atomic.make 0;
    c_escal_saved = Atomic.make 0;
  }

(* An oracle like [t] on another program: same session (so candidates
   already seen hit its caches), settings and profile order, optionally
   restricted to the named profiles. *)
let recompile ?only t (tp : Minic.Tast.tprogram) : t =
  let profiles =
    match only with
    | None -> t.profiles
    | Some names ->
        List.filter (fun p -> List.mem p.Policy.pname names) t.profiles
  in
  create ~session:t.session ~profiles ~normalize:t.normalize ~fuel:t.base_fuel
    ~max_fuel:t.max_fuel ~compare_status:t.compare_status ~jobs:t.jobs
    ~dedup:t.dedup tp

let names t = List.map fst t.binaries
let binaries t = t.binaries
let session t = t.session
let jobs t = t.jobs
let base_fuel t = t.base_fuel
let fuel_limit t = t.max_fuel
let normalize t = t.normalize

(* The budget needed to replay a set of observations faithfully: a
   terminating run behaves identically under any budget >= its
   [fuel_used], and a hang's [fuel_used] equals the (escalated) budget
   it was observed at.  Localization and reduction re-executions must
   use this, not the base fuel: a divergence found after escalation
   replayed at base fuel manufactures spurious hangs. *)
let verdict_fuel t (obs : (string * observation) list) : int =
  List.fold_left (fun acc (_, o) -> max acc o.fuel_used) t.base_fuel obs
let class_count t = Array.length t.class_repr
let classes t = Array.copy t.class_of

let stats t =
  {
    checks = Atomic.get t.c_checks;
    vm_execs = Atomic.get t.c_execs;
    dedup_saved = Atomic.get t.c_dedup_saved;
    escalation_saved = Atomic.get t.c_escal_saved;
  }

let reset_stats t =
  Atomic.set t.c_checks 0;
  Atomic.set t.c_execs 0;
  Atomic.set t.c_dedup_saved 0;
  Atomic.set t.c_escal_saved 0

let stats_to_json (s : stats) : string =
  Printf.sprintf
    "{\"checks\": %d, \"vm_execs\": %d, \"dedup_saved\": %d, \
     \"escalation_saved\": %d}"
    s.checks s.vm_execs s.dedup_saved s.escalation_saved

let run_one t ~fuel ~input (u : Ir.unit_) : observation =
  let r =
    Cdvm.Exec.run
      ~config:{ Cdvm.Exec.default_config with Cdvm.Exec.input; fuel }
      u
  in
  {
    output = t.normalize r.Cdvm.Exec.stdout;
    status = r.Cdvm.Exec.status;
    fuel_used = r.Cdvm.Exec.fuel_used;
  }

(* Observe class [ci] through the session: linked execution with the
   handle's pooled arena, served from the observation store when the
   session caches (the store holds raw output; normalization is this
   oracle's concern). *)
let run_linked_one t ~fuel ~input ci : observation =
  let o = Engine.Session.run t.session t.class_linked.(ci) ~input ~fuel in
  {
    output = t.normalize o.Engine.Session.obs_stdout;
    status = o.Engine.Session.obs_status;
    fuel_used = o.Engine.Session.obs_fuel;
  }

(* checksum of what CompDiff compares for one observation; hashed
   incrementally so the hot path never concatenates *)
let checksum t (o : observation) : int32 =
  let status_part = if t.compare_status then Cdvm.Trap.signature o.status else "" in
  Cdutil.Murmur3.hash32_parts [ o.output; "\x00"; status_part ]

(* Sequential, dedup-free reference: run every binary on [input],
   escalating fuel while the hang set is mixed. *)
let observe_naive t ~(input : string) : (string * observation) list =
  let rec attempt fuel =
    let obs = List.map (fun (n, u) -> (n, run_one t ~fuel ~input u)) t.binaries in
    let hangs, finished =
      List.partition (fun (_, o) -> o.status = Cdvm.Trap.Hang) obs
    in
    if hangs = [] || finished = [] then obs
    else if fuel >= t.max_fuel then obs
    else attempt (fuel * 4)
  in
  attempt t.base_fuel

(* Deduped, pooled, incrementally escalating execution.  Produces the
   same observation list as [observe_naive] (see the header comment). *)
let observe t ~(input : string) : (string * observation) list =
  Atomic.incr t.c_checks;
  let nclasses = Array.length t.class_repr in
  let class_obs : observation option array = Array.make nclasses None in
  let run_round fuel (pending : int list) =
    let run ci =
      Atomic.incr t.c_execs;
      (ci, run_linked_one t ~fuel ~input ci)
    in
    let npending = List.length pending in
    let obs =
      if t.jobs > 1 && npending > 1 then Cdutil.Pool.map run pending
      else List.map run pending
    in
    List.iter (fun (ci, o) -> class_obs.(ci) <- Some o) obs;
    (* accounting, relative to the naive oracle's [nbinaries] runs per
       round: dedup covers the members beyond each representative,
       incremental escalation covers the classes not re-run at all *)
    let covered = List.fold_left (fun a ci -> a + t.class_size.(ci)) 0 pending in
    ignore (Atomic.fetch_and_add t.c_dedup_saved (covered - npending));
    ignore (Atomic.fetch_and_add t.c_escal_saved (t.nbinaries - covered))
  in
  let rec escalate fuel pending =
    run_round fuel pending;
    let hung = ref [] and hung_members = ref 0 in
    for ci = nclasses - 1 downto 0 do
      match class_obs.(ci) with
      | Some o when o.status = Cdvm.Trap.Hang ->
          hung := ci :: !hung;
          hung_members := !hung_members + t.class_size.(ci)
      | _ -> ()
    done;
    (* [hung = []]: everything terminated. [hung_members = nbinaries]:
       an all-hang, which (as in the naive loop) is only possible in the
       first round and counts as agreement. *)
    if !hung = [] || !hung_members = t.nbinaries then ()
    else if fuel >= t.max_fuel then ()
    else escalate (fuel * 4) !hung
  in
  escalate t.base_fuel (List.init nclasses Fun.id);
  List.mapi
    (fun i (name, _) ->
      match class_obs.(t.class_of.(i)) with
      | Some o -> (name, o)
      | None -> assert false)
    t.binaries

(* Batched observation of many inputs: per-class, all inputs that still
   need the class at the current fuel level run through ONE
   {!Engine.Session.run_batch} (single arena acquisition, amortized
   reset).  Escalation is level-synchronous — every input walks the same
   base, ×4, ×16, … fuel sequence as the sequential loop, inputs just
   drop out when their hang set stabilizes — so element [k] of the
   result is exactly [observe t ~input:inputs.(k)], and the per-round
   stats accounting below mirrors [observe]'s per input. *)
let observe_batch t ~(inputs : string array) :
    (string * observation) list array =
  let ninputs = Array.length inputs in
  ignore (Atomic.fetch_and_add t.c_checks ninputs);
  let nclasses = Array.length t.class_repr in
  let class_obs : observation option array array =
    Array.init ninputs (fun _ -> Array.make nclasses None)
  in
  (* pending.(k): classes input k still has to run at the current level *)
  let pending = Array.make ninputs (List.init nclasses Fun.id) in
  if ninputs = 0 then [||]
  else begin
    let fuel = ref t.base_fuel in
    let continue_ = ref true in
    while !continue_ do
      (* accounting, per input, identical to [observe]'s run_round *)
      Array.iter
        (fun pend ->
          if pend <> [] then begin
            let npending = List.length pend in
            let covered =
              List.fold_left (fun a ci -> a + t.class_size.(ci)) 0 pend
            in
            ignore (Atomic.fetch_and_add t.c_execs npending);
            ignore (Atomic.fetch_and_add t.c_dedup_saved (covered - npending));
            ignore (Atomic.fetch_and_add t.c_escal_saved (t.nbinaries - covered))
          end)
        pending;
      (* transpose: which inputs does each class run this round? *)
      let by_class = Array.make nclasses [] in
      Array.iteri
        (fun k pend ->
          List.iter (fun ci -> by_class.(ci) <- k :: by_class.(ci)) pend)
        pending;
      let run_class ci =
        let ks = Array.of_list (List.rev by_class.(ci)) in
        let batch = Array.map (fun k -> inputs.(k)) ks in
        let obs =
          Engine.Session.run_batch t.session t.class_linked.(ci) ~inputs:batch
            ~fuel:!fuel
        in
        Array.iteri
          (fun j o ->
            class_obs.(ks.(j)).(ci) <-
              Some
                {
                  output = t.normalize o.Engine.Session.obs_stdout;
                  status = o.Engine.Session.obs_status;
                  fuel_used = o.Engine.Session.obs_fuel;
                })
          obs;
        ci
      in
      let cis =
        List.filter (fun ci -> by_class.(ci) <> []) (List.init nclasses Fun.id)
      in
      if t.jobs > 1 && List.length cis > 1 then
        ignore (Cdutil.Pool.map run_class cis)
      else List.iter (fun ci -> ignore (run_class ci)) cis;
      (* recompute each input's pending set, exactly as [escalate] does *)
      let any = ref false in
      Array.iteri
        (fun k pend ->
          if pend <> [] then begin
            let hung = ref [] and hung_members = ref 0 in
            for ci = nclasses - 1 downto 0 do
              match class_obs.(k).(ci) with
              | Some o when o.status = Cdvm.Trap.Hang ->
                  hung := ci :: !hung;
                  hung_members := !hung_members + t.class_size.(ci)
              | _ -> ()
            done;
            if !hung = [] || !hung_members = t.nbinaries then pending.(k) <- []
            else if !fuel >= t.max_fuel then pending.(k) <- []
            else begin
              pending.(k) <- !hung;
              any := true
            end
          end)
        pending;
      if !any then fuel := !fuel * 4 else continue_ := false
    done;
    Array.map
      (fun co ->
        List.mapi
          (fun i (name, _) ->
            match co.(t.class_of.(i)) with
            | Some o -> (name, o)
            | None -> assert false)
          t.binaries)
      class_obs
  end

let verdict_of_observations t (obs : (string * observation) list) : verdict =
  match obs with
  | [] -> invalid_arg "Oracle: no binaries"
  | (_, first) :: rest ->
    let c0 = checksum t first in
    if List.for_all (fun (_, o) -> checksum t o = c0) rest then Agree first
    else Diverge obs

let check t ~(input : string) : verdict =
  verdict_of_observations t (observe t ~input)

let check_naive t ~(input : string) : verdict =
  verdict_of_observations t (observe_naive t ~input)

let check_batch t ~(inputs : string array) : verdict array =
  Array.map (verdict_of_observations t) (observe_batch t ~inputs)

let is_divergence = function Diverge _ -> true | Agree _ -> false

(* Scan an input set; return the first bug-triggering input, like the
   "save to diffs/" step of Algorithm 1. *)
let find_bug t ~(inputs : string list) : (string * (string * observation) list) option
    =
  List.find_map
    (fun input ->
      match check t ~input with
      | Diverge obs -> Some (input, obs)
      | Agree _ -> None)
    inputs

(* Detection only needs the boolean, so the whole input set goes through
   one batched observation per class instead of a check per input.
   (Worth it because the common answer during fuzzing is "no".) *)
let detects t ~(inputs : string list) : bool =
  Array.exists is_divergence (check_batch t ~inputs:(Array.of_list inputs))

(* Group implementations by observed behaviour: the equivalence classes
   that drive the subset studies of Figures 1 and 2. Returns a class id
   per implementation, in implementation order. *)
let partition t (obs : (string * observation) list) : int array =
  let table : (int32, int) Hashtbl.t = Hashtbl.create 8 in
  let next = ref 0 in
  Array.of_list
    (List.map
       (fun (_, o) ->
         let c = checksum t o in
         match Hashtbl.find_opt table c with
         | Some id -> id
         | None ->
           let id = !next in
           incr next;
           Hashtbl.add table c id;
           id)
       obs)

(* human-readable divergence report, in the paper's bug-report format:
   input, reproducing configurations, divergent outputs *)
let report_to_string ~(input : string) (obs : (string * observation) list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "=== CompDiff divergence report ===\n";
  Buffer.add_string buf
    (Printf.sprintf "input (%d bytes): %S\n" (String.length input) input);
  let by_output = Hashtbl.create 8 in
  List.iter
    (fun (name, o) ->
      let key = (o.output, Cdvm.Trap.status_to_string o.status) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_output key) in
      Hashtbl.replace by_output key (name :: cur))
    obs;
  Hashtbl.iter
    (fun (out, status) names ->
      Buffer.add_string buf
        (Printf.sprintf "--- %s (status %s):\n%s\n"
           (String.concat ", " (List.rev names))
           status out))
    by_output;
  Buffer.contents buf

(* Coverage-guided greybox fuzzing (the unhighlighted part of
   Algorithm 1), with an optional per-input oracle callback (the
   highlighted CompDiff part) and optional sanitizer hooks on the
   instrumented binary.

   The loop is AFL++'s: select a seed, mutate it, execute the
   instrumented build; save crashing inputs, keep coverage-increasing
   inputs as new seeds. Every generated input is also handed to
   [on_input], which CompDiff-AFL++ uses to run the differential
   binaries. *)

open Cdutil

type config = {
  seeds : string list;
  max_execs : int;
  fuel : int;
  rng_seed : int;
  det_bytes : int;
      (* AFL's deterministic stage, reduced: sweep all 256 values through
         the first [det_bytes] payload positions of every initial seed *)
  hooks : Cdvm.Hooks.t;            (* sanitizers on the fuzzing build *)
  on_input : (string -> interest) option;
      (* the CompDiff hook; [Interesting] force-adds the input to the
         queue even without new coverage (divergence-as-feedback, the
         NEZHA-style extension of the paper's Section 5) *)
}

and interest = Boring | Interesting

let default_config =
  {
    seeds = [ "" ];
    max_execs = 2_000;
    fuel = 100_000;
    rng_seed = 1;
    det_bytes = 2;
    hooks = Cdvm.Hooks.none;
    on_input = None;
  }

type crash = {
  crash_input : string;
  crash_status : Cdvm.Trap.status;
  at_exec : int;
}

type campaign = {
  execs : int;
  queue : Queue.entry list;
  crashes : crash list;
  edges_covered : int;
  san_reports : (string * string) list; (* input, report *)
}

type state = {
  target : Cdcompiler.Ir.unit_;
  image : Cdvm.Image.t;          (* target, linked once per campaign *)
  arena : Cdvm.Arena.t;          (* persistent-mode scratch, reset per exec *)
  cfg : config;
  rng : Rng.t;
  cov : Cdvm.Coverage.t;
  virgin : Bytes.t;
  queue : Queue.t;
  mutable execs : int;
  mutable crashes : crash list;
  mutable san_reports : (string * string) list;
  (* crash and sanitizer dedup are separate namespaces: a trap string
     and a sanitizer message that happen to collide (e.g. both render
     as "divide-by-zero") must not suppress each other's first report *)
  mutable crash_sigs : (string, unit) Hashtbl.t;
  mutable san_sigs : (string, unit) Hashtbl.t;
}

let process st (input : string) (r : Cdvm.Exec.result) ~(novelty : int) =
  (match r.Cdvm.Exec.status with
  | Cdvm.Trap.Trap t ->
    let sig_ = Cdvm.Trap.to_string t in
    if not (Hashtbl.mem st.crash_sigs sig_) then begin
      Hashtbl.add st.crash_sigs sig_ ();
      st.crashes <-
        { crash_input = input; crash_status = r.Cdvm.Exec.status; at_exec = st.execs }
        :: st.crashes
    end
  | Cdvm.Trap.San_report msg ->
    if not (Hashtbl.mem st.san_sigs msg) then begin
      Hashtbl.add st.san_sigs msg ();
      st.san_reports <- (input, msg) :: st.san_reports
    end
  | Cdvm.Trap.Exit _ | Cdvm.Trap.Hang -> ());
  (* the CompDiff hook: Algorithm 1 lines 9-12; a divergence-feedback
     oracle may declare the input interesting on its own *)
  let oracle_interest =
    match st.cfg.on_input with
    | Some f -> f input = Interesting
    | None -> false
  in
  if novelty > 0 || oracle_interest then
    ignore
      (Queue.add st.queue ~novelty ~divergent:oracle_interest ~data:input
         ~fuel_used:r.Cdvm.Exec.fuel_used ~found_at:st.execs)

(* Execute inputs on the instrumented build: ONE VM batch on the
   campaign arena (amortized reset), replaying the per-exec bookkeeping
   in order from [on_each] — execs counter, virgin-map merge,
   crash/report dedup, queue updates and the oracle hook — so each input
   sees the state the inputs before it left.  This is the only way the
   fuzzer executes.  Stages whose inputs do not depend on execution
   results batch them (seed import and the deterministic sweep); havoc
   mutations read the evolving queue, so they go one at a time, as
   batches of one. *)
let consider_batch st (inputs : string array) =
  if Array.length inputs > 0 then begin
    Cdvm.Coverage.reset st.cov;
    let config =
      {
        Cdvm.Exec.default_config with
        Cdvm.Exec.fuel = st.cfg.fuel;
        coverage = Some st.cov;
        observer = Cdvm.Observer.sanitize st.cfg.hooks;
      }
    in
    ignore
      (Cdvm.Exec.run_batch ~config ~arena:st.arena
         ~on_each:(fun i r ->
           st.execs <- st.execs + 1;
           let novelty = Cdvm.Coverage.merge_count ~virgin:st.virgin st.cov in
           process st inputs.(i) r ~novelty;
           Cdvm.Coverage.reset st.cov)
         st.image ~inputs)
  end

let run ?(config = default_config) (target : Cdcompiler.Ir.unit_) : campaign =
  (* an empty corpus is a valid configuration, not a crash: fall back to
     the empty input, exactly what AFL does with a null seed *)
  let seeds = match config.seeds with [] -> [ "" ] | l -> l in
  let image = Cdvm.Image.link target in
  let st =
    {
      target;
      image;
      arena = Cdvm.Arena.create image;
      cfg = config;
      rng = Rng.create config.rng_seed;
      cov = Cdvm.Coverage.create ();
      virgin = Bytes.make Cdvm.Coverage.size '\000';
      queue = Queue.create ();
      execs = 0;
      crashes = [];
      san_reports = [];
      crash_sigs = Hashtbl.create 16;
      san_sigs = Hashtbl.create 16;
    }
  in
  (* seed the queue (one VM batch: the corpus is fixed up front) *)
  consider_batch st (Array.of_list seeds);
  (* deterministic stage on the initial corpus: enumerate every byte value
     at the first few payload positions (position 0 is the record tag the
     corpus already covers).  The candidate set is input-independent, so
     it is generated up front, truncated to the exec budget (the batch
     runs exactly the candidates the sequential loop would have), and
     executed as one batch. *)
  let det_cands = ref [] in
  List.iter
    (fun s ->
      let n = String.length s in
      for pos = 1 to min config.det_bytes (n - 1) do
        for v = 0 to 255 do
          if s.[pos] <> Char.chr v then begin
            let b = Bytes.of_string s in
            Bytes.set b pos (Char.chr v);
            det_cands := Bytes.to_string b :: !det_cands
          end
        done
      done)
    seeds;
  let remaining = max 0 (config.max_execs - st.execs) in
  consider_batch st
    (Array.of_list
       (List.filteri (fun i _ -> i < remaining) (List.rev !det_cands)));
  if Queue.is_empty st.queue then
    (* ensure progress even if no seed increased coverage (e.g. duplicate
       seeds): keep the first one *)
    ignore (Queue.add st.queue ~data:(List.hd seeds) ~fuel_used:0 ~found_at:0);
  (* main loop *)
  while st.execs < config.max_execs do
    let seed = Queue.select st.queue in
    let energy = Queue.energy st.queue seed in
    let budget = min energy (config.max_execs - st.execs) in
    for _ = 1 to budget do
      let input =
        if Rng.int st.rng 4 = 0 then
          match Queue.random_other st.queue st.rng seed.Queue.id with
          | Some other -> Mutator.splice st.rng seed.Queue.data other.Queue.data
          | None -> Mutator.havoc st.rng seed.Queue.data
        else Mutator.havoc st.rng seed.Queue.data
      in
      consider_batch st [| input |]
    done
  done;
  {
    execs = st.execs;
    queue = Queue.to_list st.queue;
    crashes = List.rev st.crashes;
    edges_covered =
      (let n = ref 0 in
       Bytes.iter (fun c -> if c <> '\000' then incr n) st.virgin;
       !n);
    san_reports = List.rev st.san_reports;
  }

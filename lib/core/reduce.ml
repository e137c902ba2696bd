(* Oracle-validated divergence reduction (paper Section 5).

   A saved divergence is a raw havoc-mutated blob; the paper's reports
   are reduced reproducers.  This module shrinks the (program, input)
   pair while preserving the *divergence class*:

     - the canonical signature of the behaviour partition (which
       implementations agree with which), which also pins the first
       disagreeing implementation pair, and
     - the function the divergence localizes to, traced at the fuel the
       verdict was obtained at (Oracle.verdict_fuel) on the linked
       executor.

   Every candidate — a shorter input, a canonicalized byte, a program
   with a statement dropped — is re-validated through Oracle.check
   before it is accepted, so a candidate that diverges *differently*
   (an unrelated bug uncovered by the edit) is rejected rather than
   silently swapped in.  Soundness is therefore trivial: the final pair
   was validated by the very oracle that will judge the report.

   Program candidates are screened first on the two implementations the
   divergence separates ([screen_rejects]); only the survivors pay for
   the full recompilation.  The screen rejects only candidates the full
   check would reject too (DESIGN.md section 8), so it changes the cost
   of reduction, never its result. *)

type cls = {
  cls_signature : int;
  cls_pair : (string * string) option;
  cls_fn : string option;
}

type stats = {
  checks : int;
  input_before : int;
  input_after : int;
  stmts_before : int;
  stmts_after : int;
  screened : int;
}

type result = {
  red_input : string;
  red_observations : (string * Oracle.observation) list;
  red_program : Minic.Ast.program option;
  red_class : cls;
  red_stats : stats;
}

let class_of (oracle : Oracle.t) ~(input : string)
    (obs : (string * Oracle.observation) list) : cls =
  let cls_signature =
    Triage.signature_of_partition (Oracle.partition oracle obs)
  in
  let cls_pair = Localize.divergent_pair oracle obs in
  let cls_fn =
    match Localize.of_divergence oracle (Oracle.binaries oracle) obs ~input with
    | Some l -> (
      match (l.Localize.at_a, l.Localize.at_b) with
      | Some e, _ | None, Some e -> Some e.Localize.ev_fn
      | None, None -> None)
    | None -> None
  in
  { cls_signature; cls_pair; cls_fn }

let same_class a b = a.cls_signature = b.cls_signature && a.cls_fn = b.cls_fn

let input_ratio (s : stats) : float =
  if s.input_before = 0 then 0.
  else 1. -. (float_of_int s.input_after /. float_of_int s.input_before)

(* --- input reduction: ddmin, then byte canonicalization --- *)

(* ddmin in its complement-removal form: split the input into [n]
   chunks, try dropping each; on success restart from the shorter input
   at granularity [n - 1], otherwise double [n] until chunks are single
   bytes.  One round's candidates are independent edits of the same
   input, so they are screened as a batch ([test_batch], one batched
   oracle pass) — but acceptance must still be the FIRST passing
   candidate in order, which [test_batch] guarantees. *)
let ddmin ~(test_batch : string array -> string option) (s0 : string) : string =
  let current = ref s0 in
  let n = ref 2 in
  let continue_ = ref (String.length s0 > 0) in
  while !continue_ do
    let len = String.length !current in
    if len = 0 then continue_ := false
    else begin
      let n' = min !n len in
      let chunk = (len + n' - 1) / n' in
      let nchunks = (len + chunk - 1) / chunk in
      let cands =
        Array.init nchunks (fun i ->
            let lo = i * chunk and hi = min len ((i + 1) * chunk) in
            String.sub !current 0 lo ^ String.sub !current hi (len - hi))
      in
      match test_batch cands with
      | Some cand ->
        current := cand;
        n := max 2 (n' - 1)
      | None ->
        if chunk <= 1 then continue_ := false else n := min (2 * n') len
    end
  done;
  !current

(* Canonicalize the surviving bytes: prefer '\000', else a printable
   digit, so the reproducer reads as regular structure plus the few
   bytes that actually matter.  Length never changes. *)
let canonicalize ~(test : string -> bool) (s0 : string) : string =
  let current = ref s0 in
  String.iteri
    (fun i c ->
      let try_byte r =
        if c = r then false
        else begin
          let b = Bytes.of_string !current in
          Bytes.set b i r;
          let cand = Bytes.to_string b in
          if test cand then begin
            current := cand;
            true
          end
          else false
        end
      in
      if not (try_byte '\000') then ignore (try_byte '0'))
    s0;
  !current

(* --- structural program reduction --- *)

open Minic.Ast

(* Pre-order traversal assigning every statement (nested ones included)
   an index; [f i s = Some repl] substitutes [repl] for the statement
   without descending into it, [None] keeps it and descends. *)
let map_stmts (f : int -> stmt -> stmt list option) (p : program) :
    program * int =
  let counter = ref 0 in
  let rec map_block (b : block) : block =
    List.concat_map
      (fun s ->
        let i = !counter in
        incr counter;
        match f i s with
        | Some repl -> repl
        | None ->
          let s' =
            match s.s with
            | SIf (c, a, b2) -> { s with s = SIf (c, map_block a, map_block b2) }
            | SWhile (c, b2) -> { s with s = SWhile (c, map_block b2) }
            | SBlock b2 -> { s with s = SBlock (map_block b2) }
            | SExpr _ | SDecl _ | SReturn _ | SBreak | SContinue | SPrint _ ->
              s
          in
          [ s' ])
      b
  in
  let funcs = List.map (fun fn -> { fn with body = map_block fn.body }) p.funcs in
  ({ p with funcs }, !counter)

let count_stmts (p : program) : int = snd (map_stmts (fun _ _ -> None) p)

let collect_stmts (p : program) : (int * stmt) list =
  let acc = ref [] in
  ignore
    (map_stmts
       (fun i s ->
         acc := (i, s) :: !acc;
         None)
       p);
  List.rev !acc

let zero = { e = EInt 0L; eloc = no_loc }

let is_zero e = match e.e with EInt 0L -> true | _ -> false

(* Candidate replacements for one statement, most aggressive first:
   drop it, flatten branches, zero the expressions it evaluates. *)
let stmt_rewrites (s : stmt) : stmt list list =
  let keep d = [ { s with s = d } ] in
  [ [] ]
  @ (match s.s with
    | SIf (_, a, b) ->
      (if a <> [] then [ keep (SBlock a) ] else [])
      @ if b <> [] then [ keep (SBlock b) ] else []
    | SWhile (_, b) -> if b <> [] then [ keep (SBlock b) ] else []
    | SDecl d when d.dinit <> None && d.dinit <> Some zero ->
      [ keep (SDecl { d with dinit = Some zero }) ]
    | SReturn (Some e) when not (is_zero e) -> [ keep (SReturn (Some zero)) ]
    | SExpr { e = EAssign (l, r); eloc } when not (is_zero r) ->
      [ keep (SExpr { e = EAssign (l, zero); eloc }) ]
    | SPrint (fmt, args) when List.exists (fun a -> not (is_zero a)) args ->
      [ keep (SPrint (fmt, List.map (fun _ -> zero) args)) ]
    | _ -> [])

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* All one-step program simplifications, lazily: function drops first
   (the biggest wins), then globals, then per-statement rewrites. *)
let candidates (p : program) : program Seq.t =
  let func_drops =
    Seq.filter_map
      (fun i ->
        if (List.nth p.funcs i).fname = "main" then None
        else Some { p with funcs = drop_nth p.funcs i })
      (Seq.init (List.length p.funcs) Fun.id)
  in
  let global_drops =
    Seq.map
      (fun i -> { p with globals = drop_nth p.globals i })
      (Seq.init (List.length p.globals) Fun.id)
  in
  let stmt_edits =
    Seq.concat_map
      (fun (i, s) ->
        Seq.map
          (fun repl ->
            fst (map_stmts (fun j _ -> if j = i then Some repl else None) p))
          (List.to_seq (stmt_rewrites s)))
      (List.to_seq (collect_stmts p))
  in
  Seq.append func_drops (Seq.append global_drops stmt_edits)

(* --- the reducer --- *)

(* The pair screen: observe the candidate on the divergent pair alone.
   When both terminate with equal checksums, the full oracle observes
   those same two results (it escalates at least as far while the pair
   is mixed, and a terminating run is budget-invariant), so its
   partition puts [a] and [b] in one class where the original class
   separates them: the candidate cannot preserve the class. *)
let screen_rejects ~template ~pair:(a, b) ~input tp =
  let o = Oracle.recompile ~only:[ a; b ] template tp in
  match Oracle.observe o ~input with
  | [ (_, oa); (_, ob) ] ->
      oa.Oracle.status <> Cdvm.Trap.Hang
      && ob.Oracle.status <> Cdvm.Trap.Hang
      && Oracle.checksum o oa = Oracle.checksum o ob
  | _ -> false

let reduce ?(max_checks = 1_000) ?program ?reoracle (oracle : Oracle.t)
    ~(input : string) (obs : (string * Oracle.observation) list) :
    result option =
  let cls = class_of oracle ~input obs in
  if cls.cls_pair = None then None
  else begin
    let checks = ref 0 and screened = ref 0 in
    let best_obs = ref obs in
    (* one validation = one oracle check (plus the two localization
       traces); a candidate passes iff it still diverges in the same
       class *)
    let test_input cand =
      !checks < max_checks
      && begin
           incr checks;
           match Oracle.check oracle ~input:cand with
           | Oracle.Agree _ -> false
           | Oracle.Diverge obs' ->
             if same_class cls (class_of oracle ~input:cand obs') then begin
               best_obs := obs';
               true
             end
             else false
         end
    in
    (* Batched round screening for ddmin: every candidate of the round
       goes through one batched oracle pass, then the verdicts are
       walked in candidate order — the accepted candidate, the class
       validations performed, and the consumed check budget are
       identical to testing candidates one by one.  (Candidates past
       the first acceptance are observed but not charged, mirroring the
       sequential loop, which never reaches them.) *)
    let screen_batch (cands : string array) : string option =
      let budget = max_checks - !checks in
      if budget <= 0 then None
      else begin
        let cands =
          if Array.length cands > budget then Array.sub cands 0 budget
          else cands
        in
        let verdicts = Oracle.check_batch oracle ~inputs:cands in
        let rec walk i =
          if i >= Array.length cands then None
          else begin
            incr checks;
            match verdicts.(i) with
            | Oracle.Agree _ -> walk (i + 1)
            | Oracle.Diverge obs' ->
              if same_class cls (class_of oracle ~input:cands.(i) obs')
              then begin
                best_obs := obs';
                Some cands.(i)
              end
              else walk (i + 1)
          end
        in
        walk 0
      end
    in
    let red_input =
      canonicalize ~test:test_input (ddmin ~test_batch:screen_batch input)
    in
    let red_program, red_observations, stmts_before, stmts_after =
      match program with
      | None -> (None, !best_obs, 0, 0)
      | Some p0 ->
        let reoracle =
          match reoracle with Some f -> f | None -> Oracle.recompile oracle
        in
        (* The screen's template is the first re-oracle, and only when it
           judges the same implementations in the same order as [oracle]
           (then partitions line up position for position with the
           original class) and more than the pair (else the screen is
           the full check).  Until then every candidate gets the full
           check. *)
        let screen = ref (fun _ -> false) and first = ref true in
        let full tp =
          let o = reoracle tp in
          if !first then begin
            first := false;
            let names = Oracle.names o in
            if names = Oracle.names oracle && List.length names > 2 then
              screen :=
                screen_rejects ~template:o ~pair:(Option.get cls.cls_pair)
                  ~input:red_input
          end;
          o
        in
        let prog_obs = ref None in
        (* one check per typechecked candidate, whichever stage decides
           it, so the budget is spent exactly as by full checks alone *)
        let test_program cand =
          !checks < max_checks
          && begin
               match Minic.Typecheck.check_program_result cand with
               | Error _ -> false
               | Ok tp ->
                 incr checks;
                 if !screen tp then begin
                   incr screened;
                   false
                 end
                 else begin
                   let o = full tp in
                   match Oracle.check o ~input:red_input with
                   | Oracle.Agree _ -> false
                   | Oracle.Diverge obs' ->
                     if same_class cls (class_of o ~input:red_input obs')
                     then begin
                       prog_obs := Some obs';
                       true
                     end
                     else false
                 end
             end
        in
        (* greedy fixpoint: apply the first validating one-step
           simplification, rescan from the simplified program *)
        let cur = ref p0 in
        let progressed = ref true in
        while !progressed && !checks < max_checks do
          match Seq.find test_program (candidates !cur) with
          | Some p' -> cur := p'
          | None -> progressed := false
        done;
        if !prog_obs = None then (None, !best_obs, 0, 0)
        else
          ( Some !cur,
            Option.get !prog_obs,
            count_stmts p0,
            count_stmts !cur )
    in
    Some
      {
        red_input;
        red_observations;
        red_program;
        red_class = cls;
        red_stats =
          {
            checks = !checks;
            input_before = String.length input;
            input_after = String.length red_input;
            stmts_before;
            stmts_after;
            screened = !screened;
          };
      }
  end

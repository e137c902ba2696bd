(* Tests for the oracle-validated divergence reducer (paper §5). *)

let frontend src =
  match Minic.frontend_of_source src with
  | Ok tp -> tp
  | Error msg -> Alcotest.failf "front end: %s" msg

let parse src =
  match Minic.Parser.parse_program_result src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse: %s" msg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* an uninitialized read guarded by one input byte: diverging inputs
   carry lots of removable padding, the guard byte is all that matters *)
let guarded_uninit_src =
  "int main() {\n\
   \  int a = getchar();\n\
   \  int junk;\n\
   \  if (a == 85) { print(\"v=%d\\n\", junk); }\n\
   \  else { print(\"ok\\n\"); }\n\
   \  return 0;\n\
   }"

(* divergence on the very first byte read (no guard): the minimal
   reproducer is the empty input, since getchar returns -1 on EOF and
   the junk read happens unconditionally *)
let unconditional_uninit_src =
  "int main() {\n\
   \  int junk;\n\
   \  int tag = getchar();\n\
   \  print(\"%d\\n\", junk);\n\
   \  print(\"tag=%d\\n\", tag);\n\
   \  return 0;\n\
   }"

let diverging_obs oracle ~input =
  match Compdiff.Oracle.check oracle ~input with
  | Compdiff.Oracle.Diverge obs -> obs
  | Compdiff.Oracle.Agree _ -> Alcotest.failf "expected divergence on %S" input

let reduce_exn ?max_checks ?program ?reoracle oracle ~input =
  let obs = diverging_obs oracle ~input in
  match Compdiff.Reduce.reduce ?max_checks ?program ?reoracle oracle ~input obs with
  | Some r -> r
  | None -> Alcotest.fail "reduce returned None on a divergence"

(* --- invariants --- *)

let test_reduced_still_diverges () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "U-and-a-lot-of-padding-bytes" in
  let r = reduce_exn oracle ~input in
  (* re-validate from scratch: the reduced input must diverge on its own *)
  let obs' = diverging_obs oracle ~input:r.Compdiff.Reduce.red_input in
  check_bool "reduced input still diverges" true (obs' <> [])

let test_reduce_preserves_class () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "Upadding" in
  let obs = diverging_obs oracle ~input in
  let before = Compdiff.Reduce.class_of oracle ~input obs in
  let r = reduce_exn oracle ~input in
  let after =
    Compdiff.Reduce.class_of oracle ~input:r.Compdiff.Reduce.red_input
      r.Compdiff.Reduce.red_observations
  in
  check_int "same partition signature" before.Compdiff.Reduce.cls_signature
    after.Compdiff.Reduce.cls_signature;
  Alcotest.(check (option string))
    "same localized function"
    before.Compdiff.Reduce.cls_fn after.Compdiff.Reduce.cls_fn

let test_reduce_never_grows () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  List.iter
    (fun input ->
      let r = reduce_exn oracle ~input in
      check_bool "input never grows" true
        (String.length r.Compdiff.Reduce.red_input <= String.length input);
      check_int "stats match input" (String.length input)
        r.Compdiff.Reduce.red_stats.Compdiff.Reduce.input_before;
      check_int "stats match reduced"
        (String.length r.Compdiff.Reduce.red_input)
        r.Compdiff.Reduce.red_stats.Compdiff.Reduce.input_after)
    [ "Uxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"; "U" ]

let test_reduce_strips_padding () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "U" ^ String.make 63 'z' in
  let r = reduce_exn oracle ~input in
  (* only the guard byte matters; ddmin must strip essentially all of
     the padding (the guard byte itself cannot be removed) *)
  check_bool "padding removed" true
    (String.length r.Compdiff.Reduce.red_input <= 2);
  check_bool "at least the guard byte kept" true
    (String.length r.Compdiff.Reduce.red_input >= 1)

let test_reduce_already_minimal () =
  let oracle =
    Compdiff.Oracle.create ~fuel:60_000 (frontend unconditional_uninit_src)
  in
  let r = reduce_exn oracle ~input:"" in
  check_int "empty input stays empty" 0
    (String.length r.Compdiff.Reduce.red_input);
  Alcotest.(check (float 0.001)) "ratio of empty input is 0" 0.
    (Compdiff.Reduce.input_ratio r.Compdiff.Reduce.red_stats)

let test_reduce_rejects_agreement () =
  let stable = "int main() { print(\"hi\\n\"); return 0; }" in
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend stable) in
  let obs = Compdiff.Oracle.observe oracle ~input:"abc" in
  Alcotest.(check bool) "agreement is not reducible" true
    (Compdiff.Reduce.reduce oracle ~input:"abc" obs = None)

(* --- program reduction --- *)

let test_program_reduction_shrinks () =
  let src = guarded_uninit_src in
  let program = parse src in
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend src) in
  let r = reduce_exn oracle ~input:"Upadding" ~program in
  let s = r.Compdiff.Reduce.red_stats in
  check_int "stmts counted" (Compdiff.Reduce.count_stmts program)
    s.Compdiff.Reduce.stmts_before;
  check_bool "program never gains statements" true
    (s.Compdiff.Reduce.stmts_after <= s.Compdiff.Reduce.stmts_before);
  match r.Compdiff.Reduce.red_program with
  | None -> ()                        (* no progress is a legal outcome *)
  | Some p ->
    check_int "reduced stmt count reported" (Compdiff.Reduce.count_stmts p)
      s.Compdiff.Reduce.stmts_after;
    (* the reduced program still typechecks and still diverges on the
       reduced input under a fresh oracle *)
    (match Minic.Typecheck.check_program_result p with
    | Error msg -> Alcotest.failf "reduced program does not typecheck: %s" msg
    | Ok tp ->
      let oracle' = Compdiff.Oracle.create ~fuel:60_000 tp in
      (match
         Compdiff.Oracle.check oracle' ~input:r.Compdiff.Reduce.red_input
       with
      | Compdiff.Oracle.Diverge _ -> ()
      | Compdiff.Oracle.Agree _ ->
        Alcotest.fail "reduced program no longer diverges"))

let test_budget_respected () =
  let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend guarded_uninit_src) in
  let input = "U" ^ String.make 40 'q' in
  let r = reduce_exn ~max_checks:10 oracle ~input in
  check_bool "validation budget respected" true
    (r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks <= 10)

(* --- the pair screen --- *)

(* a helper function and a global give program reduction function and
   global drops to try, besides statement edits *)
let helper_uninit_src =
  "int g = 7;\n\
   int twice(int x) { return x + x; }\n\
   int main() {\n\
   \  int a = getchar();\n\
   \  int junk;\n\
   \  int t = twice(a);\n\
   \  if (a == 85) { print(\"v=%d\\n\", junk); }\n\
   \  print(\"t=%d g=%d\\n\", t, g);\n\
   \  return 0;\n\
   }"

(* (source, diverging input) pairs whose candidates the screen tests *)
let screen_cases =
  [
    (guarded_uninit_src, "U");
    (unconditional_uninit_src, "");
    (helper_uninit_src, "U");
  ]

let same_class (a : Compdiff.Reduce.cls) (b : Compdiff.Reduce.cls) =
  a.Compdiff.Reduce.cls_signature = b.Compdiff.Reduce.cls_signature
  && a.Compdiff.Reduce.cls_fn = b.Compdiff.Reduce.cls_fn

(* Whether the full oracle on [tp] preserves [cls] at [input]: the
   acceptance test of program reduction without the screen. *)
let full_preserves oracle cls ~input tp =
  let o = Compdiff.Oracle.recompile oracle tp in
  match Compdiff.Oracle.check o ~input with
  | Compdiff.Oracle.Agree _ -> false
  | Compdiff.Oracle.Diverge obs ->
    same_class cls (Compdiff.Reduce.class_of o ~input obs)

let test_screen_sound () =
  let rejected = ref 0 in
  List.iter
    (fun (src, input) ->
      let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend src) in
      let cls =
        Compdiff.Reduce.class_of oracle ~input (diverging_obs oracle ~input)
      in
      let pair = Option.get cls.Compdiff.Reduce.cls_pair in
      Seq.iter
        (fun cand ->
          match Minic.Typecheck.check_program_result cand with
          | Error _ -> ()
          | Ok tp ->
            if Compdiff.Reduce.screen_rejects ~template:oracle ~pair ~input tp
            then begin
              incr rejected;
              if full_preserves oracle cls ~input tp then
                Alcotest.failf "screen rejected a class-preserving candidate:\n%s"
                  (Minic.Pretty.program_to_string cand)
            end)
        (Compdiff.Reduce.candidates (parse src)))
    screen_cases;
  check_bool "the screen rejects some candidates" true (!rejected > 0)

(* Program reduction with full checks only, written out from the
   contract: the input stage as [reduce] runs it, then the greedy
   first-acceptable-candidate fixpoint, one check per typechecked
   candidate. *)
let greedy_full_checks ~max_checks oracle ~input program =
  let obs = diverging_obs oracle ~input in
  let cls = Compdiff.Reduce.class_of oracle ~input obs in
  let r = reduce_exn ~max_checks oracle ~input in
  let red_input = r.Compdiff.Reduce.red_input in
  let checks = ref r.Compdiff.Reduce.red_stats.Compdiff.Reduce.checks in
  let accept cand =
    !checks < max_checks
    &&
    match Minic.Typecheck.check_program_result cand with
    | Error _ -> false
    | Ok tp ->
      incr checks;
      full_preserves oracle cls ~input:red_input tp
  in
  let rec fix cur progressed =
    if !checks >= max_checks then (cur, progressed)
    else
      match Seq.find accept (Compdiff.Reduce.candidates cur) with
      | Some p -> fix p true
      | None -> (cur, progressed)
  in
  let p, progressed = fix program false in
  (red_input, (if progressed then Some p else None), !checks)

let test_screen_equivalent () =
  let screened = ref 0 in
  List.iter
    (fun (src, input, max_checks) ->
      let program = parse src in
      let oracle = Compdiff.Oracle.create ~fuel:60_000 (frontend src) in
      let r = reduce_exn ~max_checks ~program oracle ~input in
      let red_input, red_program, checks =
        greedy_full_checks ~max_checks oracle ~input program
      in
      let s = r.Compdiff.Reduce.red_stats in
      screened := !screened + s.Compdiff.Reduce.screened;
      Alcotest.(check string) "same reduced input" red_input
        r.Compdiff.Reduce.red_input;
      check_bool "same reduced program" true
        (red_program = r.Compdiff.Reduce.red_program);
      check_int "same checks" checks s.Compdiff.Reduce.checks;
      check_bool "screened within checks" true
        (s.Compdiff.Reduce.screened <= s.Compdiff.Reduce.checks))
    [
      (guarded_uninit_src, "Upadding", 1_000);
      (helper_uninit_src, "Uxyz", 1_000);
      (* a budget that runs out mid-way through program reduction *)
      (helper_uninit_src, "Uxyz", 20);
    ];
  check_bool "the screen decided some candidates" true (!screened > 0)

(* Regression: candidate oracles used to be built with all ten profiles
   whatever the original oracle judged, so a 2-profile oracle's
   partitions never matched and program reduction made no progress. *)
let test_profile_subset_progress () =
  let src = guarded_uninit_src in
  let program = parse src in
  let profiles =
    List.map
      (fun n -> Option.get (Cdcompiler.Profiles.by_name n))
      [ "gccx-O0"; "clangx-O3" ]
  in
  let oracle = Compdiff.Oracle.create ~profiles ~fuel:60_000 (frontend src) in
  let r = reduce_exn oracle ~input:"U" ~program in
  let s = r.Compdiff.Reduce.red_stats in
  check_bool "program reduced" true (r.Compdiff.Reduce.red_program <> None);
  check_bool "statements removed" true
    (s.Compdiff.Reduce.stmts_after < s.Compdiff.Reduce.stmts_before);
  check_int "nothing to screen with only the pair" 0 s.Compdiff.Reduce.screened

let tc name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "compdiff.reduce",
      [
        tc "reduced input still diverges" test_reduced_still_diverges;
        tc "class preserved" test_reduce_preserves_class;
        tc "never grows" test_reduce_never_grows;
        tc "strips padding" test_reduce_strips_padding;
        tc "already minimal" test_reduce_already_minimal;
        tc "agreement rejected" test_reduce_rejects_agreement;
        tc "program reduction" test_program_reduction_shrinks;
        tc "budget respected" test_budget_respected;
        tc "pair screen sound" test_screen_sound;
        tc "pair screen equals full checks" test_screen_equivalent;
        tc "profile subset reduces program" test_profile_subset_progress;
      ] );
  ]

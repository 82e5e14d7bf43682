(* One benchmark run: main.exe --workload W --seed N --seconds S --trace 0|1

   Prints the run's figures as "name value unit" lines and, last, one JSON
   object with every metric measured, the deterministic counters and the
   run's recorded facts (mix, sample counts, tail percentile).  The full
   result is also written to OUT/W-seedN.json and, for a traced run, the
   spans and per-layer self times to OUT/W-seedN.trace.json. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--rules DIR] [--out DIR]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let rules = ref "rules" and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--rules", Arg.Set_string rules, "DIR directory of the shipped rule files");
      ("--out", Arg.Set_string out, "DIR where result files go");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload Workloads.all with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload; have: " ^ String.concat ", " (List.map fst Workloads.all));
      exit 2
  in
  let cfg =
    {
      Workloads.seed = !seed;
      seconds = !seconds;
      trace = !trace <> 0;
      rules = Rig.read_rules ~dir:!rules;
    }
  in
  let r = run cfg in
  let tally = r.Workloads.tally in
  let measured =
    r.Workloads.metrics
    @ List.map (fun (n, v) -> (n, float_of_int v, "count")) r.Workloads.counters
  in
  let defaults =
    if not cfg.Workloads.trace then []
    else
      List.filter_map
        (fun (n, u) ->
          if List.exists (fun (m, _, _) -> m = n) measured then None else Some (n, 0.0, u))
        Workloads.not_exercised
  in
  let metrics = measured @ defaults @ [ ("fail_frac", Measure.fail_frac tally, "fraction") ] in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %14.6g %s\n" n v u) metrics;
  List.iter (fun f -> Printf.printf "FAILURE %s\n" f) (List.rev tally.Measure.first_failures);
  let info =
    [ ("workload", Json.Str !workload); ("seed", Json.Int !seed); ("seconds", Json.Num !seconds);
      ("trace", Json.Int !trace) ]
    @ Workloads.env_info () @ r.Workloads.info
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (tally.Measure.failed = 0));
        ("attempted", Json.Int tally.Measure.attempted);
        ("failed", Json.Int tally.Measure.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
               metrics) );
        ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) r.Workloads.counters));
        ("info", Json.Obj info);
      ]
  in
  (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
  let base = Filename.concat !out (Printf.sprintf "%s-seed%d" !workload !seed) in
  let write path v = Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string v ^ "\n")) in
  if cfg.Workloads.trace then begin
    write (base ^ ".trace.json")
      (Json.Obj
         [
           ("layers",
            Json.Obj
              (List.map
                 (fun (name, l) ->
                   ( name,
                     Json.Obj
                       [
                         ("calls", Json.Int l.Tracer.calls);
                         ("self_ms", Json.Num (l.Tracer.self_s *. 1000.0));
                         ("total_ms", Json.Num (l.Tracer.total_s *. 1000.0));
                       ] ))
                 (Tracer.layers r.Workloads.tracer)));
           ("spans", Tracer.to_json r.Workloads.tracer);
         ]);
    write (base ^ ".traced-result.json") result
  end
  else write (base ^ ".json") result;
  print_endline (Json.to_string result)

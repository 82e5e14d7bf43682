(* The bench JSON writer and the [--check] reader agree: what a run writes
   reads back unchanged, so a dump checked against itself never reports a
   mismatch, even at tolerance 0. *)

module Json = Support.Json

let rec json_equal a b =
  match (a, b) with
  | Json.Int x, Json.Int y -> Int.equal x y
  | Json.Float x, Json.Float y -> Float.equal x y
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && json_equal v v') xs ys
  | Json.Arr xs, Json.Arr ys -> List.equal json_equal xs ys
  | _ -> false

let roundtrip v =
  let buf = Buffer.create 64 in
  Json.output buf v;
  Json.parse (Buffer.contents buf)

let float_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"finite floats read back bit for bit"
    QCheck.(
      oneof
        [
          float;
          map (fun (m, e) -> ldexp m e) (pair float (int_range (-1070) 1020));
          map float_of_int int;
        ])
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match roundtrip (Json.Float f) with
      | Json.Float g -> Float.equal f g
      | _ -> false)

let written_rows_reload () =
  let rows =
    [
      [
        ("section", Json.Str "fig13");
        ("query", Json.Str "Q7");
        ("joins", Json.Int 3);
        ("prairie_ms", Json.Float 12.345678912345);
        ("groups", Json.Int 500);
        ("cost", Json.Float 733.36812345678901);
      ];
      [
        ("section", Json.Str "table5");
        ("name", Json.Str "a \"quoted\"\tname");
        ("cost", Json.Float 512.0);
        ("ratio", Json.Float 0.1);
        ("tiny", Json.Float 1.5e-300);
        ("neg", Json.Float (-0.0));
      ];
    ]
  in
  List.iter Support.record_row rows;
  let file = Filename.temp_file "bench_support" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Support.write_json file ~full:false ~sections:[ "fig13"; "table5" ];
      let b = Support.load_baseline file in
      Alcotest.(check int) "row count" (List.length rows) (List.length b.Support.b_rows);
      List.iter2
        (fun w r ->
          Alcotest.(check bool)
            "row reads back equal" true
            (json_equal (Json.Obj w) (Json.Obj r)))
        rows b.Support.b_rows;
      let _, errors = Support.check_against ~file ~tolerance:0.0 in
      Alcotest.(check (list string)) "self-check at tolerance 0" [] errors)

let () =
  Alcotest.run "bench"
    [
      ( "support.json",
        [
          Alcotest.test_case "written rows reload through load_baseline" `Quick
            written_rows_reload;
          QCheck_alcotest.to_alcotest float_roundtrip;
        ] );
    ]

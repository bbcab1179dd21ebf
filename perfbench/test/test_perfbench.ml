(* The benchmark's own statistics and result document. *)

let close = Alcotest.float 1e-12

let median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats: no samples") (fun () ->
      ignore (Stats.median []))

let mean () = Alcotest.check close "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let ints n = List.init n (fun i -> float_of_int (i + 1))

let tail () =
  (* 100 samples 1..100: p90 is the 90th value, ten beyond it *)
  let t = Stats.tail (ints 100) in
  Alcotest.(check int) "pct" 90 t.pct;
  Alcotest.check close "value" 90.0 t.value;
  Alcotest.(check int) "beyond" 10 t.beyond;
  (* 48 samples: p79 ranks 38th (ceil 37.92), ten beyond; p80 ranks 39th *)
  let t = Stats.tail (List.rev (ints 48)) in
  Alcotest.(check int) "pct 48" 79 t.pct;
  Alcotest.check close "value 48" 38.0 t.value;
  Alcotest.(check int) "beyond 48" 10 t.beyond;
  (* too few samples for ten beyond any percentile above the median *)
  let t = Stats.tail (ints 12) in
  Alcotest.(check int) "pct floor" 50 t.pct;
  Alcotest.check close "value floor" 6.0 t.value;
  Alcotest.(check int) "beyond floor" 6 t.beyond;
  (* 20 samples: the median itself is the first rank with ten beyond *)
  let t = Stats.tail (ints 20) in
  Alcotest.(check int) "pct 20" 50 t.pct;
  Alcotest.(check int) "beyond 20" 10 t.beyond

let rates () =
  let events = [ 100; 300; 50 ] and secs = [ 1.0; 1.0; 0.25 ] in
  Alcotest.(check (list close)) "rates" [ 100.0; 300.0; 200.0 ] (Stats.rates ~events ~secs);
  Alcotest.check close "median" 200.0 (Stats.rate_median ~events ~secs);
  Alcotest.check close "mean" 200.0 (Stats.rate_mean ~events ~secs);
  (* one very slow instance moves the median by one rank only *)
  Alcotest.check close "robust" 100.0
    (Stats.rate_median ~events:[ 100; 100; 100 ] ~secs:[ 1.0; 1.0; 1000.0 ]);
  Alcotest.check_raises "mismatch" (Invalid_argument "Stats.rates: length mismatch") (fun () ->
      ignore (Stats.rates ~events:[ 1 ] ~secs:[]));
  Alcotest.check_raises "zero time" (Invalid_argument "Stats.rates: non-positive time")
    (fun () -> ignore (Stats.rates ~events:[ 1 ] ~secs:[ 0.0 ]))

let doc =
  {
    Report.correct = true;
    attempted = 48;
    failed = 1;
    metrics =
      [
        { Report.name = "setup_s"; value = 0.0015749852000000002; unit = "s" };
        { name = "events_per_s"; value = 925526.30988212; unit = "1/s" };
        { name = "decided_share"; value = 1.0; unit = "ratio" };
      ];
  }

let round_trip () =
  let line = Report.to_line doc in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Report.of_json (Obs.Json.of_string_exn line) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      Alcotest.(check bool) "equal" true (back = doc);
      Alcotest.(check string) "stable" line (Report.to_line back)

let rejects () =
  let bad s =
    match Report.of_json (Obs.Json.of_string_exn s) with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  bad {|{"correct":true,"attempted":1,"failed":0}|};
  bad {|{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}|};
  bad {|{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}|};
  bad {|{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":"x","unit":"s"}}}|};
  bad {|{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1,"unit":"s","n":2}}}|};
  bad {|{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1,"unit":"s"},"a":{"value":2,"unit":"s"}}}|}

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "mean" `Quick mean;
          Alcotest.test_case "tail percentile" `Quick tail;
          Alcotest.test_case "per-instance rates" `Quick rates;
        ] );
      ( "report",
        [
          Alcotest.test_case "round trip" `Quick round_trip;
          Alcotest.test_case "rejects malformed" `Quick rejects;
        ] );
    ]

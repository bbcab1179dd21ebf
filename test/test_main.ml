(* Aggregates all module suites.  Run with `dune runtest`; add
   ALCOTEST_QUICK_TESTS=1 to skip the `Slow statistical campaigns. *)

let () =
  (* Route alcotest logs to the system temp dir: the default location is
     the current directory's _build, which inside dune's own _build tree
     confuses `dune runtest` on subsequent runs. *)
  let argv =
    if Array.exists (fun a -> a = "-o") Sys.argv then Sys.argv
    else Array.append Sys.argv [| "-o"; Filename.get_temp_dir_name () |]
  in
  Alcotest.run ~argv "coincidence"
    [
      ("rng", T_rng.suite);
      ("sha256", T_sha256.suite);
      ("hex/hmac/drbg", T_hex_hmac_drbg.suite);
      ("bigint", T_bigint.suite);
      ("prime/rsa", T_prime_rsa.suite);
      ("vrf", T_vrf.suite);
      ("dleq", T_dleq.suite);
      ("field", T_field.suite);
      ("sim", T_sim.suite);
      ("params", T_params.suite);
      ("stats", T_stats.suite);
      ("model", T_model.suite);
      ("sample", T_sample.suite);
      ("coin", T_coin.suite);
      ("whp-coin", T_whp_coin.suite);
      ("approver", T_approver.suite);
      ("ba", T_ba.suite);
      ("baselines", T_baselines.suite);
      ("trace", T_trace.suite);
      ("obs", T_obs.suite);
      ("golden", T_golden.suite);
      ("vclock", T_vclock.suite);
      ("attacks/chain", T_attacks_chain.suite);
      ("fuzz", T_fuzz.suite);
      ("integration", T_integration.suite);
      ("lint", T_lint.suite);
      ("mc", T_mc.suite);
      ("exec", T_exec.suite);
      ("ledger", T_ledger.suite);
    ]

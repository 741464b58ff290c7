(* The shared command-line knobs, evaluated on an argv the way ftsim and
   bench parse them. *)

open Cmdliner
open Ftsim_sim
open Ftsim_ftlinux
module Cli = Ftsim_cli.Cli

let eval term args =
  Cmd.eval_value ~err:Format.str_formatter
    ~argv:(Array.of_list ("prog" :: args))
    (Cmd.v (Cmd.info "prog") term)

let value term args =
  match eval term args with
  | Ok (`Ok v) -> v
  | _ -> Alcotest.failf "%s: rejected" (String.concat " " args)

let rejected term args =
  match eval term args with
  | Error `Parse -> true
  | Ok _ | Error _ -> false

(* bench parses [`Batch; `Replay_workers] over {!Cluster.default_config};
   an ftsim subcommand parses a wider set over its own base. *)
let bench_knobs = Cli.config [ `Batch; `Replay_workers ]

let all_knobs =
  [ `Driver_ms; `Batch; `Det_shard; `Replay_workers; `Lagmon; `Reprotect;
    `Regen_delay ]

let ftsim_knobs = Cli.config all_knobs

let test_batch_window_zero_unbatched () =
  let c = value bench_knobs [ "--batch-window"; "0" ] in
  Alcotest.(check bool) "unbatched" true (c.Cluster.batch = Msglayer.unbatched);
  let c = value bench_knobs [ "--batch-window"; "250" ] in
  Alcotest.(check int) "window set" (Time.us 250)
    c.Cluster.batch.Msglayer.batch_window

let test_admission () =
  Alcotest.(check (option int)) "on" (Some 64) (value Cli.admission [ "--admission"; "on" ]);
  Alcotest.(check (option int)) "off" None (value Cli.admission [ "--admission"; "off" ]);
  Alcotest.(check (option int)) "limit" (Some 8) (value Cli.admission [ "--admission"; "8" ]);
  Alcotest.(check bool) "0 rejected" true (rejected Cli.admission [ "--admission"; "0" ])

let test_replay_workers_zero_rejected () =
  Alcotest.(check bool) "bench" true (rejected bench_knobs [ "--replay-workers"; "0" ]);
  Alcotest.(check bool) "ftsim" true (rejected ftsim_knobs [ "--replay-workers"; "0" ]);
  Alcotest.(check int) "4 accepted" 4
    (value ftsim_knobs [ "--replay-workers"; "4" ]).Cluster.replay_workers

(* The commands start from different bases (ftsim's monitor is on, [slo]
   and [chaos] start from the fast-failover preset), so the claim is per
   base: over the same base, the same flags give the same config whichever
   knob set parses them. *)
let test_same_flags_same_config () =
  List.iter
    (fun (name, base) ->
      List.iter
        (fun args ->
          Alcotest.(check bool)
            (name ^ ": " ^ String.concat " " args)
            true
            (value (Cli.config ~base [ `Batch; `Replay_workers ]) args
            = value (Cli.config ~base all_knobs) args))
        [
          [];
          [ "--batch-window"; "0" ];
          [ "--batch-window"; "40"; "--batch-bytes"; "8192";
            "--replay-workers"; "4" ];
        ])
    [
      ("default", Cluster.default_config);
      ( "monitor on",
        { Cluster.default_config with lagmon = Some Lagmon.default_config } );
      ("fast failover", Ftsim_apps.Scenario.fast_failover);
      ("chaos", Ftsim_apps.Chaosrun.config);
    ]

let test_defaults_from_base () =
  let base = { Cluster.default_config with driver_load_time = Time.ms 200 } in
  let c = value (Cli.config ~base [ `Driver_ms; `Regen_delay ]) [] in
  Alcotest.(check bool) "absent flags keep the base" true (c = base);
  let c = value (Cli.config ~base [ `Driver_ms ]) [ "--driver-ms"; "50" ] in
  Alcotest.(check int) "flag overrides" (Time.ms 50) c.Cluster.driver_load_time

let () =
  Alcotest.run "cli"
    [
      ( "knobs",
        [
          Alcotest.test_case "batch-window 0 is unbatched" `Quick
            test_batch_window_zero_unbatched;
          Alcotest.test_case "admission" `Quick test_admission;
          Alcotest.test_case "replay-workers 0 rejected" `Quick
            test_replay_workers_zero_rejected;
          Alcotest.test_case "same flags over the same base, same config" `Quick
            test_same_flags_same_config;
          Alcotest.test_case "defaults from base" `Quick test_defaults_from_base;
        ] );
    ]

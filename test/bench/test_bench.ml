(* The JSON layout every BENCH_*.json is written in: scripts and the
   committed trajectory read these files, so the printer's exact output
   is pinned here. *)

open Bench_util
module F = Soqm_testlib.Fixtures

let text = Alcotest.string

let test_layout () =
  Alcotest.check text "nested object, array of objects, fixed floats"
    "{\n\
    \  \"bench\": \"demo\",\n\
    \  \"n\": 3,\n\
    \  \"entries\": [\n\
    \    {\"name\": \"a\", \"ns\": 12.3, \"ok\": true},\n\
    \    {\"name\": \"b\", \"ns\": 0.5, \"ok\": false}\n\
    \  ],\n\
    \  \"ratio\": 2.00,\n\
    \  \"pool\": {\"hit_rate\": 0.951, \"bound_ms\": 5000, \"inner\": \
     {\"x\": null}}\n\
     }"
    (json_to_string
       (Obj
          [
            ("bench", Str "demo");
            ("n", Int 3);
            ( "entries",
              List
                [
                  Obj
                    [
                      ("name", Str "a"); ("ns", Fixed (1, 12.34));
                      ("ok", Bool true);
                    ];
                  Obj
                    [
                      ("name", Str "b"); ("ns", Fixed (1, 0.45001));
                      ("ok", Bool false);
                    ];
                ] );
            ("ratio", Fixed (2, 2.0));
            ( "pool",
              Obj
                [
                  ("hit_rate", Fixed (3, 0.95125));
                  ("bound_ms", Fixed (0, 5000.));
                  ("inner", Obj [ ("x", Null) ]);
                ] );
          ]))

let test_strings () =
  Alcotest.check text "quote, backslash, newline, control"
    {|{
  "say \"hi\"": "a\\b\nc\u0001"
}|}
    (json_to_string (Obj [ ({|say "hi"|}, Str "a\\b\nc\001") ]));
  Alcotest.check text "non-finite floats, empty array"
    "{\n  \"x\": [\n    null,\n    null\n  ],\n  \"e\": []\n}"
    (json_to_string
       (Obj [ ("x", List [ Fixed (2, nan); Fixed (1, infinity) ]); ("e", List []) ]))

let () =
  Alcotest.run "bench"
    [
      ( "json",
        [
          F.case "layout and precision" test_layout;
          F.case "strings and non-finite floats" test_strings;
        ] );
    ]

"""Golden outputs: scheme traces and rate points stay bit for bit the same.

The values were captured from the slot-at-a-time scheme build, before
phases drew their randomness in one call and factored and broadcast
their slots as stacks.  They pin this numpy/OpenBLAS build (numpy 2.4.6
with scipy-openblas 0.3.31 on x86-64): another BLAS or numpy may round a
product or a QR differently, and then these hashes change while every
rational and decode verdict stays the same.
"""

import hashlib
import json
from itertools import chain

import numpy as np
import pytest

from delayedcsit.cli import main
from delayedcsit.numerics import RngStream, stacks
from delayedcsit.ratesim import simulate_rates, snr_grid
from delayedcsit.schemes import (
    AirLog,
    _chain_layout,
    _chain_plan,
    _run_chain,
    _subsets,
    build_phase,
    run_alt22,
    run_mat23_suboptimal,
    run_opt23,
    run_order_j_delivery,
    run_square_scheme,
    tdma_trace,
)
from oracles import plan_counts, v1_doc_from_v2, v1_from_v2, v2_from_v3, v3_losses

SEEDS = (1, 2024)

BUILDERS = {
    "square-2": lambda s, c=None: run_square_scheme(2, s, c),
    "square-3": lambda s, c=None: run_square_scheme(3, s, c),
    "square-5": lambda s, c=None: run_square_scheme(5, s, c),
    "alt22": run_alt22,
    "mat23": run_mat23_suboptimal,
    "opt23": run_opt23,
    "tdma-3": lambda s, c=None: tdma_trace(3, s, c),
    "order-2-3-2": lambda s, c=None: run_order_j_delivery(2, 3, 2, s, c),
}

#: sha256 of the schema-``v1`` trace document at stream ``(seed, 3)``, one
#: per seed: every JSON pin of a trace below hashes ``v1_from_v2`` of
#: ``v2_from_v3`` of what ``to_json()`` writes, each heard equation
#: rebuilt from its slot.
TRACE_SHA256 = {
    "square-2": (
        "c381f3abcda851099f7f8245b505d286eb18fd8213eb2eb4e201d8f109b36070",
        "31422a9f46521b2c5af3fdb4829bebbfa79a58dda3932bad8a6405d8df457fb5",
    ),
    "square-3": (
        "1a78cc5e87fd9ae8e59a4744b796a0a72d2d656fc8e9c7b74f1168829cad5676",
        "3a7501a83cd1f71179d73be090c5055e49fdd7bc9fe0d392a9117f524fde99c6",
    ),
    "square-5": (
        "79eab7adfb6972bca2cc3cc710d28cf753d301861baaf2a50b51878e13669d6b",
        "9f3c374fc3e16441b0fede0862bc97837b68a929cb7dd152c7a9975e2c2523e3",
    ),
    "alt22": (
        "f81964207ca0fc6b35e0db74c6e75defe1a8f8b935edce80a34239767e917b8b",
        "7c1743f0d253a466a15ca4f1f5efbdf8423506a31d1b7e5f6ac46529c7d1f1f0",
    ),
    "mat23": (
        "a9d5dccdc9f988402a4c0936e55ccef623d421c2772e75fff2fc6c7ccae0f6dd",
        "bdbc72540e85e50458dbb728b4171a77e80968200b95f99facf4834065bf608d",
    ),
    "opt23": (
        "1d34beced298732a2ccb46a165d8a757e7c05e44001354a88747c9fa03736e42",
        "b3d003337da7c54365a809fc88ad618834ab51da61ccc47639733e8fd692af11",
    ),
    "tdma-3": (
        "7be00d078ddad62be6c6d70c475c4bb17bdd6a3cda4229fdcea8f8a752dbeedd",
        "3ed9859809706dd1a4f1cdb20f1a5a649b341ab0517c9fcd11acaf99a923e5dd",
    ),
    "order-2-3-2": (
        "c68b8d118f704d54057a849833f5faecf1724ce96763b2c708465b3cf016ebc9",
        "143063ee754950a2471a6f356c0ff94908cd61a48789bc92a9d6d1fb506da2e8",
    ),
}

#: sha256 of the schema-``v2`` document, ``v2_from_v3`` of ``to_json()``,
#: for the traces of ``TRACE_SHA256``; captured from the ``v2`` writer.
TRACE_V2_SHA256 = {
    "alt22": (
        "a01e8436535fcc9d8d7df689ec0a72e9ea75178c0ee6b7cb3d22af4e684aa134",
        "9a73b4aef801643f03edd577bd14269a6aa95b49de608529b41859e58096d757",
    ),
    "mat23": (
        "c81af22f9f932d72b712251adc2a3ad2254e73ca2b6b0c7900b2ad36344c7e8a",
        "391aeda76abe0c6968dd590d004a2ceebc66fd361b2d091d6560afa9caf17970",
    ),
    "opt23": (
        "05ba8fb805c7d0788e707ee78ff63cf5d8c78011d5ae2c6ad5139cb31872d64e",
        "df515ddd9ac5ecf2d28dc40330a8ee0eb7c2a2f2a5296f9d7b6ec76ea5ceede5",
    ),
    "order-2-3-2": (
        "e3efe1f1f03e1237784d10e27e6d8253d6aa602aaf0c4bd51a3dca9727c4198c",
        "ebadaee8b8add77ebddb17eac016f9401ac100586bc0ae36a6e0d5d5bce45990",
    ),
    "square-2": (
        "58664001e9188fb65b21285b4dcd987f09354efabadbb8486043880c5bd2fec3",
        "21fe86376a849f1cf1b8d5629d9e40e8ebc90eb1fa735ca314d354d880253648",
    ),
    "square-3": (
        "cece00697f7a3e7be84a64309a844bfb87c74ca0daebfa4ab97abe11c329669e",
        "b3c93e787e9b4ab1f2fe45332d3147bce1af59b7763e5c6b344b207de4e3d8dc",
    ),
    "square-5": (
        "85d6a9fbc26423bfefdfa1e45d80454f73db16dd0c278f5369565a0d52eb61a1",
        "6683c33913d5c5649a2ad9ccc286b5b7ca3139b0b79c8554ea25b8f9d34e19d5",
    ),
    "tdma-3": (
        "bafc3400338301de0380d56692cdcf2a68b61652f0a08acaf18a96ae9cf9f0fe",
        "ccba67d828b54e0e3d4d90ed68a533128f34f1b91f3b6b10d8644ec4ca50bc7f",
    ),
}

#: sha256 of ``to_json()`` itself, the schema-``v3`` document, for the
#: traces of ``TRACE_SHA256``.
TRACE_V3_SHA256 = {
    "alt22": (
        "078a4c62676f35b195fa65954dc3ea38df05529407f75230e3ba91b50faa0b6a",
        "d6d784d05f122dd329024ce68e18f9a056281623d89ae812918ccd274dc407d7",
    ),
    "mat23": (
        "37be53432198ea913edaf2adc41a4b686aa3d930d238697e62d4c52a2d09b77d",
        "be59a9dc038b332a782e57e8c6d43d2e5775624ba64833b3b36c5371a8fa1b8e",
    ),
    "opt23": (
        "4151cf6951b9389fc62c7960a51127bb74c1fa0403edf395be27d68d89dca17c",
        "74512056e8f32424f3c252e3119a8d903941348322c14a8599b326e519f78410",
    ),
    "order-2-3-2": (
        "0592cfbd3f2698f1d4edef31cac608ad766f5a754e0800180e4a9c9c51d13c56",
        "490cd75f6f2a0c8f887fc69b71bb3417324d8bb9ff00fdf7ffc12a45bd48e08e",
    ),
    "square-2": (
        "bc33579db661d9f83b4cb886d51da50f150284382ad16b4e55724db967d74672",
        "198e017e6fe04d42c1b2ccbb9b259e36287d0ed45f4ae9a32e0f1a77eff0ab94",
    ),
    "square-3": (
        "e5468b30a3d36dc1285ebbdd4adcbf1abc320d7e6bcb089f752456d19ef38e20",
        "b7e0eb41460e1eb79859254c042746124360b2ceb4f6052d0733824a68cccecf",
    ),
    "square-5": (
        "552207b5620eb67a662e10dfcb418f97151a89d92678decc2bb35e8cb4af2801",
        "7af2c2bc5679e4e2818e1b0a02e067afdc1b2775464e93cabb0833b5ad31bcea",
    ),
    "tdma-3": (
        "b76182621334ba73f0ad638e4770bbe944893c183a8d40745b76360697d9430a",
        "9f3b67accbfc045ff0cdb9294efd9da169bba5259ae6f5c4249533cab9adc3e2",
    ),
}

#: The same with channel overrides that run out partway through phase
#: one: 2 of square-3's 6 phase-one slots, 3 of mat23's 12.
OVERRIDE_SHA256 = {
    "square-3": (
        "80539d85d4cc45c84a566ec582714619f96fbb43cdabbd927e8abec6dd571dba",
        "0cb0fe964ba9c6c9e45a1b26e3e62e90c67be19506bb40702e98f31bb3057aa2",
    ),
    "mat23": (
        "0122349208465f6e4134d6974c95a126534cf43da43a46b0a2c68cb1c167ea6d",
        "7178ba89ecc6b140fe6c53b651f2faa03bf39ff5cebeefdc213efc50a2233f67",
    ),
}

#: Overrides that run past phase one, ``count`` channels of ``k x m``
#: drawn from stream ``(5, 1)``: the draws skip exactly the overridden
#: channels across phases.  Traces at stream ``(seed, 3)``; the ``(3, 5)``
#: chain (37 MB of JSON) at seed 1 alone.
CROSS_PHASE = {
    # square-3 has 6 + 3 + 2 slots: 8 end in phase two, 10 in the last one
    "square-3/phase-2": (lambda s, c: run_square_scheme(3, s, c), (3, 3), 8, (
        "3292ddecc3efbfd0886e0f0cf8870cb89d49bbc14f9d005fc31572d57e03e640",
        "d847460e131e14f5639f027f33d957b568b0616789062c771d6d95b41b541a80",
    )),
    "square-3/final": (lambda s, c: run_square_scheme(3, s, c), (3, 3), 10, (
        "59333cd7238317826c68b824e3657099a03c0990cbeda728545e0506a4cb2d7f",
        "998728079aaa820b48cd513fe02db3e9c7e71e2d56297c351d88713636c8ffca",
    )),
    # 12 + 6 + 4 + 3 slots
    "square-4/phase-2": (lambda s, c: run_square_scheme(4, s, c), (4, 4), 15, (
        "c0c6497ae9fd7b59f123abb8e822333d5e652d7dd189344626340e5a39c62ede",
        "4229e1f0040eb3e9f755aa3bab5b9143e2f24ca4ad85cfb20334faae6960d770",
    )),
    # 3 + 3 + 2 slots
    "opt23/phase-2": (run_opt23, (3, 2), 5, (
        "1bc915add636191f063392855faf9afb62f953037c13787e72fc71d8910999f9",
        "59e2e722d0da29935195e32ade62e0ce52f7be8a88aec2dde4c0b84efb322c41",
    )),
    # 1 + 2 slots
    "alt22/final": (run_alt22, (2, 2), 2, (
        "5b5d3edc17dbab60bcb35ad0c5264564d243157b2526f6ef18d9a81a25ad3735",
        "2be0e98e7b7810251b503b94b46216a7dd89b4101938c773b19ae2291cdc34e6",
    )),
    # 48 + 12 + 4 + 3 slots
    "chain-2-4": (lambda s, c: _run_chain("nonsquare", 2, 4, 1, s, c), (4, 2), 0, (
        "0f46b92b2672b8d240f8c218a1c069f21ea0e404198c16f9bcf44fc1e372e36b",
        "127772e688391b0b2767319df94f08e52053b0e5386fecfe26ae5f7ab79372c1",
    )),
    "chain-2-4/phase-2": (lambda s, c: _run_chain("nonsquare", 2, 4, 1, s, c), (4, 2), 50, (
        "4c05731cd2f92becd61c8e37a81872868234996b8f605107b4a5cf85590e0e73",
        "12fbd62b0593d3d8ad317f859a8f9b9db7723a2d12341b18bbab4ef2768a04a9",
    )),
    # 270 + 90 + 40 + 30 + 24 slots
    "chain-3-5": (lambda s, c: _run_chain("nonsquare", 3, 5, 1, s, c), (5, 3), 0, (
        "432f726c94997e809e908a2b7543bb699662aef53425f964598cbd476642fd8f",
    )),
    "chain-3-5/phase-2": (lambda s, c: _run_chain("nonsquare", 3, 5, 1, s, c), (5, 3), 300, (
        "3a9400a789aa2fbe4f78b6516e11999c79be56310032172d4d9e78037e04a2cb",
    )),
}

#: sha256 of ``_run_chain("chain", m, k, j, RngStream(1, 3)).to_json()``
#: for every ``1 <= j < k <= 4`` and ``1 <= m <= k``, keyed ``(m, k, j)``:
#: full-antenna phases (``m >= k - j + 1``), antenna-limited ones, chains
#: that mix both, such as ``(3, 4, 1)``, and one-antenna phases, which
#: produce no outputs.
CHAIN_SHA256 = {
    (1, 2, 1): "fb8f9dee8e87a65570fcf025bb8a5803a688449bf7ca663f6db489d86e4ce734",
    (2, 2, 1): "78de55698a0702f835bc74da947756f760f7c21144a396caa9da7cc4d80603c1",
    (1, 3, 1): "85108d1365afd292e8dfc3ac105bfcdd89da0396a55a082a95c40d41a31dbe8e",
    (2, 3, 1): "04e11ae8d4f424d53b97738f34ed703b164907c833d9f406058e5698ce103a2e",
    (3, 3, 1): "5077716516b8c2d6fdb30de7579b7b80186b89625e79c1ee6e7cde492c98acd9",
    (1, 3, 2): "a9ae64bfc34f7fef0ebf7b26f1f29b4e18aab642549aecd5dfac156e0e31d2ac",
    (2, 3, 2): "715de29d03033e75cd4fe1fa527cfeb2baa09af9c41ca462f8ec6ce8dc979ef3",
    (3, 3, 2): "4f80d20a3382b03e5447b429d9e77eb16e8c0cea19def86d0dd0a682f052e668",
    (1, 4, 1): "6fe5d334a9cbd081e98ff060d893f31f23aea9d7bd6cb0a42d2b69318216f8c9",
    (2, 4, 1): "08ecc862ba77121b653966e13e73c05a407ab3cfa4305e7d49b27ec50cd465e8",
    (3, 4, 1): "432704ed52d5c7acdb755b95869bb09231b7f2982c5d41d6a598c7435b9cce27",
    (4, 4, 1): "f42538ce2259a0fbf4ff02646f9a97116ab1febc6a06fd1794a14dbab641b500",
    (1, 4, 2): "80280fc1bf7f4db06033835a080dc66fed08820eac68ae393de232b5fef39807",
    (2, 4, 2): "05e6db191df9cc2185d440aa46e6f4eaecda1f14dbb49fb83b57ed330ef05018",
    (3, 4, 2): "48b2a8b141c0d4d5cbd5b2f956942009ffaabcd607712dd966cccd780087bb0a",
    (4, 4, 2): "1daf507a793cba7e89d6cca61c6e25ef68112844fe275f0aee5165d5ecb316f9",
    (1, 4, 3): "3ea748cabeee0cae5e58280d4c1375b72ac0b6902794f0826f93269d25e95da8",
    (2, 4, 3): "511ede268683f2e3d67eec1c20eb1270fad9f09f9475217156c5600b8488848b",
    (3, 4, 3): "c6a29b240edb879dcd8bb652a0d427c23231e00a64235bef17d8be4e98db9d5f",
    (4, 4, 3): "f91515520dde794b1d368af0b1cb966ea0b1b9a533863a8d3136e657a493102d",
}

#: sha256 of ``delayedcsit scheme-verify --trials 20 --seed 1`` stdout:
#: its decode margins are maxima and minima of the residual ratios.  These
#: and the ``scheme-verify`` entries of :data:`STDOUT_SHA256` were captured
#: again when the decode check moved from an SVD per receiver to a QR
#: with the rank from the plan: only the margins' bits moved, and the
#: verdicts are pinned apart in :data:`VERIFY_VERDICTS`.
VERIFY_SHA256 = {
    "opt23": (["--scheme", "opt23"],
              "771b8c030291902f39623ce8c3c9aca2db59ee644064a0579e01cfeb45e4256d"),
    "square-3": (["--scheme", "square", "--k", "3"],
                 "92d1b6de0b4d83859401fc8d91478e406cd9bef70a7ee9309f44172015bc234a"),
}

#: The verdicts of ``delayedcsit scheme-verify --trials 20 --seed 1`` for
#: the runs pinned above, from the SVD decode check:
#: ``(decode_successes, success_rate, empirical_dof, pass)``.
VERIFY_VERDICTS = {
    "opt23": (["--scheme", "opt23"], (20, 1.0, ["3/2"], True)),
    "square-3": (["--scheme", "square", "--k", "3"], (20, 1.0, ["18/11"], True)),
    "order-2-3-2": (["--scheme", "order", "--m", "2", "--k", "3", "--j", "2"],
                    (20, 1.0, ["6/5"], True)),
}

#: sha256 of ``delayedcsit scheme-run`` stdout at ``--seed`` 1 and 2024
#: (square-5 at 1 alone), in schema ``v1``: ``v1_from_v2`` of
#: ``v2_from_v3`` of the trace document and the keys the command adds to it (``command``,
#: ``decode_ok``, ``expected_dof``).  Captured from the writer that
#: rendered the whole ``v1`` document with json.
CLI_SHA256 = {
    "square-3": (["--scheme", "square", "--k", "3"], (
        "81199582e0430b15ffbb10c4f6a47de60f95229ed5c84184f25fb835c5ca24e7",
        "94bfd6cc2e662c62b70f0137f6265d7cb2555cefca5dd072e5450224070a3112",
    )),
    "opt23": (["--scheme", "opt23"], (
        "96a9c488e5a6a45eb64cf13ab5646bfc82f4ea950fa0c34e1e8384fa9d5224f6",
        "d17d1f912c328dd0b16b15c930c7a5e953cbce7ca2eefba491148cfb1e98890f",
    )),
    "order-2-3-2": (["--scheme", "order", "--m", "2", "--k", "3", "--j", "2"], (
        "01f0f377a3062e47aecd743f6332686af0aa8e22f1de1a312d63381923488d94",
        "446fd35d9b06bd098aefe3edf8f7653876f2f23f94c27329fffad0d9b09d04a0",
    )),
    "square-5": (["--scheme", "square", "--k", "5"], (
        "37a2675367217b0283904d2dca32569e765ed98d8f3aa13c787e72824ffba71a",
    )),
}

#: sha256 of the same stdout in schema ``v2``: ``v2_from_v3`` of the
#: document and its newline, as the ``v2`` writer wrote it.
CLI_V2_SHA256 = {
    "square-3": (
        "42fdcdc8af07f83940eaf7223ceb769f6d904c93fa462c14240f8518f397d0f5",
        "757654c6a1b4d022a3938f8150a339b6359bff293d7fd87bbfd5668c8eebc476",
    ),
    "opt23": (
        "4d80864bacbdefca77c14f78a038e6cbab113762d6ad60d732685ef3dca361a7",
        "09d9bd45196e5fa40b700d293d51dda2e0a60d5a15614d8b4fa5534981563908",
    ),
    "order-2-3-2": (
        "6e18776007c80feb797bb03e46bcafcf913775ea5c4bd4c4153118b9d3401e3e",
        "f63c17dc9b72e532141da742e61817736b9b929c87080108eb59ecd409bbfdf4",
    ),
    "square-5": (
        "a910f6f995763def5e2c871f41d8b0247c4e3dccc47e48ae92ed5f7bcfd043e3",
    ),
}

#: sha256 of the same stdout as the command writes it, in schema ``v3``.
CLI_V3_SHA256 = {
    "square-3": (
        "8138c123ad9044f7e49efaafae9cac9f5d1becb88683ae876702583a583db9bc",
        "2aea8d266543374c7bf887a3ffd023f2092aada92c6002ddcf47d6a21e43c2e6",
    ),
    "opt23": (
        "0bd0a6cdd051e3e5761c64bf896af3bbbde6f0b5deed0bf1c43a4263594f28be",
        "c755e0f995710ea9f7e23f792e3409641436c41b67d10d6ad8238342e9e44b67",
    ),
    "order-2-3-2": (
        "135e2758006970f03a0b4dbc1b379572ed310b44c57d0f6ca93fce5eea52bffc",
        "9f2e555504de1afe92fb01782404368617411c5009e1010b7799e72c40be49e4",
    ),
    "square-5": (
        "9d1d8a32c8a1f64ef9520cba1bbc67666648f4201dd955c376073427788a3ff9",
    ),
}

#: sha256 of the stdout of every other command and format at ``--seed 1``,
#: each exiting 0: the documents the commands build and the way the one
#: output path renders them as JSON or CSV.
STDOUT_SHA256 = {
    "dof-table-k6/json": (
        ["dof-table", "--k", "6"],
        "53d541f61672f712e39d3f9b70ee5c7a363f493da2f3f1c7021c7e9d4f83aa31"),
    "dof-table-k6/csv": (
        ["dof-table", "--k", "6"],
        "78a237c4faf46cb5de0dedf3707c166bb64eed9d31b91c2cbc7604a09774ccd9"),
    "dof-table-2-3-1/json": (
        ["dof-table", "--m", "2", "--k", "3", "--j", "1"],
        "40b1b5dfecf7010bcc5aaa587218db33ff3f74f6e5693209fcd16e05e2bb9eb0"),
    "dof-table-2-3-1/csv": (
        ["dof-table", "--m", "2", "--k", "3", "--j", "1"],
        "06a461dee87f0000f08550da25a485465ed3a7c096b23448fd239988e0286ee9"),
    "scheme-run-mat23/csv": (
        ["scheme-run", "--scheme", "mat23"],
        "b55f9efdd3007640a30ea8499d754c05d7ef806dd7bcb6e33a2117edb013e345"),
    "scheme-run-tdma-3/csv": (
        ["scheme-run", "--scheme", "tdma", "--k", "3"],
        "72f0bc16da19e9406f8e8d844b84238d7af14b174d863425ab047a5bb9f6d924"),
    "scheme-verify-square-3/csv": (
        ["scheme-verify", "--scheme", "square", "--k", "3", "--trials", "20"],
        "b6ca91ea8379cf1cd0fe8b677c8b238ed9666195098aabc015b138fa6bde9fa9"),
    "scheme-verify-order-2-3-2/json": (
        ["scheme-verify", "--scheme", "order", "--m", "2", "--k", "3", "--j", "2",
         "--trials", "20"],
        "10cb9cd1d05ad187403bc34b80d2f3651a8cd3407700077fd01f6ec767116d61"),
    "scheme-verify-order-2-3-2/csv": (
        ["scheme-verify", "--scheme", "order", "--m", "2", "--k", "3", "--j", "2",
         "--trials", "20"],
        "3cc7604a80ea3c5ae5f808412095bef3f4fa0bf1d01565aae32c2c2d4f28b249"),
    "rate-sim-square-3/json": (
        ["rate-sim", "--scheme", "square", "--k", "3", "--trials", "20"],
        "3ef1f70cf6f6d5423a7796d67795bac1bc2f493729359aca467192d32928b3fc"),
    "rate-sim-square-3/csv": (
        ["rate-sim", "--scheme", "square", "--k", "3", "--trials", "20"],
        "6f2564171759bfcce49505ea3a47b6a1c7280d9f9550db91c913a140834e789f"),
    "rate-sim-opt23/json": (
        ["rate-sim", "--scheme", "opt23", "--trials", "10"],
        "9ff50dadb13e5c1c377d1601030256c2f30cb4bb0062fca26beac07f780ca2b6"),
    "rate-sim-opt23/csv": (
        ["rate-sim", "--scheme", "opt23", "--trials", "10"],
        "d21eddcc67827840f3a10f5043277865a1459be284d3c902947ea3775af6a156"),
    # two SNR points: too few for a slope, which is null
    "rate-sim-tdma-short/json": (
        ["rate-sim", "--scheme", "tdma", "--k", "2", "--trials", "10",
         "--snr", "30:40:10"],
        "a1caa037f87aa14bbf97573c40d9f744faaace4f274c62c822c64ef2551c2761"),
    "rate-sim-tdma-short/csv": (
        ["rate-sim", "--scheme", "tdma", "--k", "2", "--trials", "10",
         "--snr", "30:40:10"],
        "086088e3491b87603dfbf89e88e9346c9f578638f3884de9151f4de3d6e843c8"),
    "region-check-corner/json": (
        ["region-check", "--point", "6/11,6/11,6/11"],
        "c975f7fbc58c87079191e78d129d516071a3515842de14493718f3cd2e1fa3ce"),
    "region-check-corner/csv": (
        ["region-check", "--point", "6/11,6/11,6/11"],
        "9e512263a3ee26df490133bc4228fc565db02dbfdafb26ca5ca6079cc07a4303"),
    "region-check-outside/json": (
        ["region-check", "--point", "1,1/2"],
        "fa311ece8fc4b8036a74815f2bc5aeac472468521326f936b4b72c45f6432032"),
    "region-check-outside/csv": (
        ["region-check", "--point", "1,1/2"],
        "36ec894fcbd1d46c0b6a1282f1f7ac1b3e50b4cfbb4ff4b32150d4765b970ac0"),
    "region-check-interior/json": (
        ["region-check", "--point", "1/3,1/4"],
        "4257e279b26a873776763a08e83e678ff24248018240535e647fbcf9cb41c353"),
    "region-check-interior/csv": (
        ["region-check", "--point", "1/3,1/4"],
        "7325d60489aea4fe2847b1fa83088a6d640c6a7031b365a8e303ac35b1cdab93"),
    "identity-check-12/json": (
        ["identity-check", "--k", "12"],
        "f97e2a86aa6a1149581f4c287ce108d7fd677248bd8e4250f356dae91dc032c3"),
    "identity-check-12/csv": (
        ["identity-check", "--k", "12"],
        "99e4a6b51a771b2c6eac641637e745189792c2244154104a6a920888130d9ec0"),
}

#: ``repr`` of ``simulate_rates`` for square-3, 20 trials, 40:60:5 dB.
RATE_POINTS_REPR = (
    '[RatePoint(snr_db=40.0, sum_rate=15.429954070025982, '
    'per_receiver=(5.091893549038749, 5.1991453471414735, '
    '5.138915173845759), trials=20, stderr=0.15977793273466806), '
    'RatePoint(snr_db=45.0, sum_rate=18.020340610159757, '
    'per_receiver=(5.9455598748760226, 6.071505668907895, '
    '6.0032750663758385), trials=20, stderr=0.17302686458422167), '
    'RatePoint(snr_db=50.0, sum_rate=20.65984582591662, '
    'per_receiver=(6.818152036348647, 6.958594943318365, '
    '6.883098846249607), trials=20, stderr=0.18259809704810762), '
    'RatePoint(snr_db=55.0, sum_rate=23.33343384227083, '
    'per_receiver=(7.704912354714388, 7.85444759254783, '
    '7.774073895008613), trials=20, stderr=0.18863422419108736), '
    'RatePoint(snr_db=60.0, sum_rate=26.030131572724507, '
    'per_receiver=(8.60161510406701, 8.75579320726963, '
    '8.672723261387866), trials=20, stderr=0.19173547974260674)]'
)


#: ``repr`` of ``simulate_rates``, 10 trials at master seed 6, for schemes
#: whose receivers' gain stacks hold more than one interference rank or a
#: rank-deficient block: square-4 on 60:80:5 dB, the others on 40:60:5 dB.
RATE_SCHEMES = {
    "square-4": (lambda s: run_square_scheme(4, s), (60.0, 80.0, 5.0)),
    "tdma-3": (lambda s: tdma_trace(3, s), (40.0, 60.0, 5.0)),
    "order-2-3-2": (lambda s: run_order_j_delivery(2, 3, 2, s),
                    (40.0, 60.0, 5.0)),
}
RATE_SCHEMES_REPR = {
    "square-4": (
        '[RatePoint(snr_db=60.0, sum_rate=28.538505336722412, '
        'per_receiver=(7.22145356181789, 7.119259439126584, '
        '7.096797425763843, 7.100994910014094), trials=10, '
        'stderr=0.15197126358344684), RatePoint(snr_db=65.0, '
        'sum_rate=31.672385053752585, per_receiver=(8.007466391031421, '
        '7.901375830864429, 7.87914282151679, 7.884400010339947), '
        'trials=10, stderr=0.15772635092285975), RatePoint(snr_db=70.0, '
        'sum_rate=34.832448933532284, per_receiver=(8.79801294896872, '
        '8.691111882737104, 8.668539098162935, 8.674785003663525), '
        'trials=10, stderr=0.16038402990914946), RatePoint(snr_db=75.0, '
        'sum_rate=38.0090628453152, per_receiver=(9.591996058728252, '
        '9.485344614413746, 9.46243015948947, 9.469292012683727), '
        'trials=10, stderr=0.16134965128208628), RatePoint(snr_db=80.0, '
        'sum_rate=41.19357739068337, per_receiver=(10.387960379462863, '
        '10.28154871079028, 10.258473028528792, 10.265595271901441), '
        'trials=10, stderr=0.16166056726353636)]'
    ),
    "tdma-3": (
        '[RatePoint(snr_db=40.0, sum_rate=13.00704757723656, '
        'per_receiver=(4.458128575866134, 4.2990122156216595, '
        '4.2499067857487685), trials=10, stderr=0.2515314069610359), '
        'RatePoint(snr_db=45.0, sum_rate=14.667674053384642, '
        'per_receiver=(5.011740269799707, 4.852612587244208, '
        '4.803321196340727), trials=10, stderr=0.25168898733160777), '
        'RatePoint(snr_db=50.0, sum_rate=16.328531168260096, '
        'per_receiver=(5.565381356845653, 5.406250093210412, '
        '5.356899718204031), trials=10, stderr=0.2517389683242316), '
        'RatePoint(snr_db=55.0, sum_rate=17.989461382269777, '
        'per_receiver=(6.119031739946442, 5.959899343809274, '
        '5.910530298514061), trials=10, stderr=0.25175478873409385), '
        'RatePoint(snr_db=60.0, sum_rate=19.65041472880125, '
        'per_receiver=(6.672685062831564, 6.513552308559338, '
        '6.464177357410347), trials=10, stderr=0.25175979309214824)]'
    ),
    "order-2-3-2": (
        '[RatePoint(snr_db=40.0, sum_rate=27.319336132632117, '
        'per_receiver=(9.372063567626084, 8.720386117223239, '
        '9.226886447782794), trials=10, stderr=0.3360458212450263), '
        'RatePoint(snr_db=45.0, sum_rate=31.27551923599453, '
        'per_receiver=(10.699234029518752, 10.026073556572356, '
        '10.550211649903423), trials=10, stderr=0.34541690258673075), '
        'RatePoint(snr_db=50.0, sum_rate=35.250074508835354, '
        'per_receiver=(12.02749613398255, 11.345418192720555, '
        '11.877160182132254), trials=10, stderr=0.3492436349805285), '
        'RatePoint(snr_db=55.0, sum_rate=39.23233739818241, '
        'per_receiver=(13.35610607424322, 12.670887384937673, '
        '13.205343939001514), trials=10, stderr=0.350584002945566), '
        'RatePoint(snr_db=60.0, sum_rate=43.21733125547124, '
        'per_receiver=(14.684826275731856, 13.998576726735005, '
        '14.53392825300438), trials=10, stderr=0.3510231615944339)]'
    ),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _sha(trace):
    """sha256 of the ``v1`` document rebuilt from the ``v3`` one written."""
    return _digest(v1_from_v2(v2_from_v3(trace.to_json())))


def _overrides():
    rng = RngStream(5)
    square3 = [rng.complex_normal((3, 3)) for _ in range(2)]
    mat23 = [rng.complex_normal((3, 2)) for _ in range(3)]
    return {"square-3": square3, "mat23": mat23}


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_trace_json_is_unchanged(name):
    texts = [BUILDERS[name](RngStream(seed, 3)).to_json() for seed in SEEDS]
    assert tuple(map(_digest, texts)) == TRACE_V3_SHA256[name]
    # what the CLI writes, the document a piece at a time, joins to the pins
    pieces = [list(BUILDERS[name](RngStream(seed, 3)).json_pieces()) for seed in SEEDS]
    assert tuple(_digest("".join(p)) for p in pieces) == TRACE_V3_SHA256[name]
    assert all(len(p) > 1 and all(isinstance(x, str) for x in p) for p in pieces)
    v2 = [v2_from_v3(text) for text in texts]
    assert tuple(map(_digest, v2)) == TRACE_V2_SHA256[name]
    assert tuple(_digest(v1_from_v2(text)) for text in v2) == TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(set(BUILDERS) - {"square-5"}))
def test_v1_renderer_matches_the_stdlib(name):
    # the v1 pins hash v1_from_v2, which renders the equations from
    # templates: on the small golden traces it is byte for byte the
    # stdlib's rendering of the v1 document
    for seed in SEEDS:
        text = v2_from_v3(BUILDERS[name](RngStream(seed, 3)).to_json())
        want = json.dumps(v1_doc_from_v2(text), sort_keys=True, indent=2)
        assert v1_from_v2(text) == want, seed


@pytest.mark.parametrize("name", sorted(OVERRIDE_SHA256))
def test_trace_json_with_partial_override_is_unchanged(name):
    channels = _overrides()[name]
    got = tuple(_sha(BUILDERS[name](RngStream(seed, 3), channels))
                for seed in SEEDS)
    assert got == OVERRIDE_SHA256[name]
    trace = BUILDERS[name](RngStream(SEEDS[0], 3), channels)
    for got, want in zip(trace.channels, channels):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(CROSS_PHASE))
def test_trace_json_with_cross_phase_override_is_unchanged(name):
    build, shape, count, want = CROSS_PHASE[name]
    rng = RngStream(5, 1)
    channels = [rng.complex_normal(shape) for _ in range(count)] or None
    got = tuple(_sha(build(RngStream(seed, 3), channels)) for seed in SEEDS[:len(want)])
    assert got == want


def test_chain_json_is_unchanged():
    # each trace also has the counts of the chain's draw-free plan
    got = {}
    for key in CHAIN_SHA256:
        trace = _run_chain("chain", *key, RngStream(1, 3))
        got[key] = _sha(trace)
        want, measured = plan_counts(_chain_plan(*key), trace)
        assert measured == want, key
    assert got == CHAIN_SHA256


@pytest.mark.parametrize("name", sorted(VERIFY_SHA256))
def test_scheme_verify_stdout_is_unchanged(name, capsys):
    argv, want = VERIFY_SHA256[name]
    main(["scheme-verify", *argv, "--trials", "20", "--seed", "1"])
    assert _digest(capsys.readouterr().out) == want


@pytest.mark.parametrize("name", sorted(VERIFY_VERDICTS))
def test_scheme_verify_verdicts_are_unchanged(name, capsys):
    argv, want = VERIFY_VERDICTS[name]
    main(["scheme-verify", *argv, "--trials", "20", "--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert tuple(doc[key] for key in ("decode_successes", "success_rate",
                                      "empirical_dof", "pass")) == want


@pytest.mark.parametrize("name", sorted(CLI_SHA256))
def test_scheme_run_stdout_is_unchanged(name, capsys):
    argv, want = CLI_SHA256[name]
    v3, v2, v1 = [], [], []
    for seed in SEEDS[:len(want)]:
        assert main(["scheme-run", *argv, "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        v3.append(_digest(out))
        text = v2_from_v3(out)
        v2.append(_digest(text + "\n"))
        v1.append(_digest(v1_from_v2(text) + "\n"))
    assert tuple(v3) == CLI_V3_SHA256[name]
    assert tuple(v2) == CLI_V2_SHA256[name]
    assert tuple(v1) == want


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_command_stdout_is_unchanged(name, capsys):
    argv, want = STDOUT_SHA256[name]
    fmt = name.rsplit("/", 1)[1]
    assert main([*argv, "--format", fmt, "--seed", "1"]) == 0
    assert _digest(capsys.readouterr().out) == want


def test_rate_points_are_unchanged():
    points = simulate_rates(lambda s: run_square_scheme(3, s),
                            snr_grid(40.0, 60.0, 5.0), 20, RngStream(6))
    assert repr(points) == RATE_POINTS_REPR


@pytest.mark.parametrize("name", sorted(RATE_SCHEMES))
def test_scheme_rate_points_are_unchanged(name):
    build, grid = RATE_SCHEMES[name]
    points = simulate_rates(build, snr_grid(*grid), 10, RngStream(6))
    assert repr(points) == "".join(RATE_SCHEMES_REPR[name])


def _golden_traces():
    """Every trace the JSON pins above hash, overrides included."""
    for name, build in sorted(BUILDERS.items()):
        for seed in SEEDS:
            yield name, build(RngStream(seed, 3))
    for name, channels in sorted(_overrides().items()):
        for seed in SEEDS:
            yield f"{name}/override", BUILDERS[name](RngStream(seed, 3), channels)
    for name, (build, shape, count, want) in sorted(CROSS_PHASE.items()):
        rng = RngStream(5, 1)
        channels = [rng.complex_normal(shape) for _ in range(count)] or None
        for seed in SEEDS[:len(want)]:
            yield name, build(RngStream(seed, 3), channels)
    for key in sorted(CHAIN_SHA256):
        yield f"chain-{key}", _run_chain("chain", *key, RngStream(1, 3))


def test_v3_loses_nothing():
    # every golden trace's channels, dense plans (absent ids +0) and
    # weights, rebuilt from its v3 document, have the trace's bits, and
    # its symbol and combination labels are the trace's
    for name, trace in _golden_traces():
        assert v3_losses(trace, trace.to_json()) == [], name


def _first_phase_by_identity(m, k, start, rng):
    """The first plan block of the chain ``(m, k, start)`` as the build
    made it before it stopped holding an ``n x n`` identity: the phase's
    drawn weights times the identity's rows, all runs in one stacked
    product."""
    air = AirLog(_chain_plan(m, k, start)[2].copy(), m, rng)
    air.draw(_chain_layout, m, k, start)
    subsets, n = _subsets(k, start), len(air.table)
    units = np.eye(n, dtype=np.complex128).reshape(len(subsets), -1, n)
    build_phase(k, start, units, air)
    return air.plans[0]


def test_row_array_is_channel_times_plan():
    # what the receivers heard, derived from the trace on each read, is bit
    # for bit each slot's channel times its plan, computed here one slot at
    # a time; a slot with no active antenna would be heard by nobody
    for name, trace in _golden_traces():
        plans = [plan for block in trace.plans for plan in block]
        heard = [s for s, plan in enumerate(plans) if len(plan)]
        rows = trace.rows
        assert len(plans) == len(trace.channels) == trace.total_slots, name
        assert rows.shape == (trace.k, len(heard), len(trace.table)), name
        assert not rows.flags.writeable, name
        for i, s in enumerate(heard):
            want = trace.channels[s][:, :len(plans[s])] @ plans[s]
            assert rows[:, i].tobytes() == want.tobytes(), (name, s)
    # a chain's first phase mixes its unit rows a stack of runs at a time:
    # its plans, signed zeros included, and so its rows are those of the
    # product with the whole identity
    for key in sorted(CHAIN_SHA256):
        trace = _run_chain("chain", *key, RngStream(1, 3))
        first = _first_phase_by_identity(*key, RngStream(1, 3))
        assert trace.plans[0].tobytes() == first.tobytes(), key
        want = trace.channels[:len(first), :, :first.shape[1]] @ first
        got = trace.rows[:, :len(first)].transpose(1, 0, 2)
        assert got.tobytes() == want.tobytes(), key


def test_stack_rows_are_slices_of_the_row_array():
    # the decode check derives a stack's rows when it reaches it, every
    # receiver's product a chunk of slots at a time, and keeps the
    # stack's receivers: bit for bit their slice of rows, on every golden
    # trace, on square-6 and (2, 4), whose receivers are stacks of one,
    # and for each receiver alone and the first and last receivers
    # together; a product with one receiver's channel row alone would
    # not give these bits
    extra = [("square-6", run_square_scheme(6, RngStream(1, 0))),
             ("chain-2-4", _run_chain("nonsquare", 2, 4, 1, RngStream(1, 0)))]
    for name, trace in chain(_golden_traces(), extra):
        rows, k = trace.rows, trace.k
        for idx in [[r] for r in range(k)] + [[0, k - 1]] * (k > 2):
            assert trace._heard(idx).tobytes() == rows[idx].tobytes(), (name, idx)
        targets = [trace.targets_for(r) for r in range(1, k + 1)]
        got = list(trace.decode_stacks())
        want = stacks([len(t) for t in targets], 16 * rows[0].size)
        assert len(got) == len(want), name
        for (stack, wanted), idx in zip(got, want):
            assert stack.tobytes() == rows[idx].tobytes(), (name, idx)
            assert not stack.flags.writeable
            assert wanted.tolist() == [targets[i] for i in idx]

"""Decide offline whether instances are schedulable at all, then watch the
fluid policy complete exactly the instances the oracle accepts.

The oracle computes a signed capacity margin exactly, by a dynamic program
over the users in arrival order, and produces either a replayable witness
schedule or a user subset whose demand provably exceeds its available
capacity. The witness is the exact continuous-time L2HPR schedule, averaged
over each arrival epoch: under a common deadline the fluid policy itself is
optimal.
"""

from laxsched import (
    DownloadRequest,
    FeasibilityProblem,
    diversity_gains,
    feasible,
    replay_witness,
    run_fluid,
    witness_text,
)

gains = diversity_gains(mean_sinr=1.0, k_max=6)

instances = {
    "comfortable": [
        DownloadRequest(1, 0.0, 6.0, 20.0),
        DownloadRequest(2, 4.0, 5.0, 20.0),
        DownloadRequest(3, 8.0, 4.0, 20.0),
    ],
    "tight": [
        DownloadRequest(1, 0.0, 9.0, 20.0),
        DownloadRequest(2, 4.0, 9.0, 20.0),
        DownloadRequest(3, 8.0, 8.5, 20.0),
    ],
    "overloaded": [
        DownloadRequest(1, 0.0, 14.0, 20.0),
        DownloadRequest(2, 4.0, 12.0, 20.0),
        DownloadRequest(3, 8.0, 11.0, 20.0),
    ],
}

for name, requests in instances.items():
    problem = FeasibilityProblem.from_requests(requests, gains)
    verdict = feasible(problem)
    print(f"\n== {name}: margin {verdict.margin:+.4f}, "
          f"{'feasible' if verdict.feasible else 'infeasible'}"
          f"{' (borderline)' if verdict.borderline else ''}")
    if verdict.feasible:
        print(f"   witness replays to completion: {replay_witness(problem, verdict.witness)}")
        print("   " + witness_text(problem, verdict.witness).replace("\n", "\n   ").rstrip())
    else:
        print(f"   certificate: {verdict.certificate.as_text()}")
    report = run_fluid(requests, gains, slot_length=20.0 * 1e-3)
    print(f"   fluid run: {report.n_completed} completed, {report.n_expired} expired")

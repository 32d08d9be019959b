"""How much is information worth? A first tour of the value-based distance.

Three two-state structures: u1 (nobody learns the state, but second-order
beliefs differ across signals), u2 (player 1 knows the state), u2prime
(player 2 knows it).  The distance between two structures is the largest
value gap any bounded zero-sum game can produce between them, computed as a
garbling optimization rather than a search over games.
"""

import numpy as np

import infodist as inf

trio = inf.canonical_examples()
u1, u2, u2prime = trio["u1"], trio["u2"], trio["u2prime"]

print("u1 tensor (state x player-1 signal x player-2 signal):")
print(u1.probs)

print("\nd(u1, u2)      =", inf.value_distance(u1, u2))
print("d(u1, u2prime) =", inf.value_distance(u1, u2prime))
print("So u1 is twice as close to 'player 1 knows' as to 'player 2 knows'.")

# The one-sided gap comes with the garbling pair that attains it.
cert = inf.one_sided_gap(u1, u2)
print("\nOne-sided gap sup_g val(u2,g) - val(u1,g) =", cert.gap)
print("attaining garbling for player 1's signal in u1:\n", cert.q1.rows)
print("recheck ||q1.u1 - u2.q2|| =", cert.recheck(u1, u2))

# Comparison order: u2 dominates u1, and domination is certified by an
# exact garbling match q1.u2 = u1.q2.
better, match = inf.is_better(u2, u1)
print("\nplayer 1 prefers u2 to u1 in every game:", better)

# A payoff function witnessing the gap: the primal solution of the same
# game-space LP whose row duals are the garblings above.  Player 1 has an
# action for each of u2's player-1 signals, player 2 one for each of u1's
# player-2 signals.
game = inf.witness_game(u1, u2)
print("\nwitness game achieves val(u2,g*) - val(u1,g*) =",
      inf.value(u2, game).value - inf.value(u1, game).value)
print("witness payoffs, state 0:\n", np.round(game.payoffs[0], 3))

# Diameter of the space at a fixed state marginal.
bounds = inf.diameter_bounds(
    inf.StateDistribution(np.array([0.5, 0.5])),
    inf.StateDistribution(np.array([0.5, 0.5])),
)
print("\ndistance range over uniform-marginal structures:",
      (bounds.lower, bounds.upper))

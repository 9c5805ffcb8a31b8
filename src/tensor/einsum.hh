/**
 * @file
 * Generic labelled contraction over dense tensors.
 *
 * The SPMD executor computes sub-operator partials generically: every
 * contraction pass is "out[out_dims] += A[a_dims] * B[b_dims]" summed
 * over the dims absent from out. Dims are identified by integer labels
 * (the operator's dim indices); every tensor's axes carry an ordered
 * label list.
 */

#ifndef PRIMEPAR_TENSOR_EINSUM_HH
#define PRIMEPAR_TENSOR_EINSUM_HH

#include <vector>

#include "tensor.hh"

namespace primepar {

/**
 * Accumulate the product contraction of @p a and @p b into @p out.
 *
 * @param a,b input tensors
 * @param a_dims,b_dims dim labels of their axes (sizes must agree with
 *        the tensors' shapes and with equal labels elsewhere)
 * @param out accumulated output (not zeroed here)
 * @param out_dims dim labels of the output axes
 *
 * Labels appearing in inputs but not in @p out_dims are summed over.
 */
void contractProduct(const Tensor &a, const std::vector<int> &a_dims,
                     const Tensor &b, const std::vector<int> &b_dims,
                     Tensor &out, const std::vector<int> &out_dims);

/**
 * True when contractProduct runs this labelling on the blocked GEMM
 * (a batched GEMM over contiguous label groups, in either operand
 * order) rather than on the scalar odometer. Depends on labels only,
 * not extents.
 */
bool contractionRunsAsGemm(const std::vector<int> &a_dims,
                           const std::vector<int> &b_dims,
                           const std::vector<int> &out_dims);

} // namespace primepar

#endif // PRIMEPAR_TENSOR_EINSUM_HH

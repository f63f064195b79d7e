/**
 * @file
 * The wire protocol's value tree is the library's one value tree
 * (ruby/io/json.hpp); serve code keeps spelling it serve::JsonValue.
 */

#ifndef RUBY_SERVE_JSON_HPP
#define RUBY_SERVE_JSON_HPP

#include "ruby/io/json.hpp"

namespace ruby
{
namespace serve
{

using ruby::JsonType;
using ruby::JsonValue;
using ruby::parseJson;
using ruby::writeJson;

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_JSON_HPP
